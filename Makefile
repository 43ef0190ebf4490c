# Developer entry points. The CI-equivalent gate is `make verify`;
# `make race` additionally runs the whole suite under the race
# detector (the live and UDP fabrics are heavily concurrent).

GO ?= go

.PHONY: all build test verify race lint loc bench-gate bench-all fuzz trace chaos durable partition

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: vet + build + full test suite.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# race runs vet plus the full suite under the race detector.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# lint runs the static checks: go vet plus gofmt, failing when any
# file is not gofmt-clean.
lint:
	$(GO) vet ./...
	@fmt_out="$$(gofmt -l .)"; \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# loc prints the non-test Go lines (raw `wc -l`) of every package and
# their total, leaving out the nested benchmark/ module: the count a
# simplicity change reports before and after.
loc:
	@git ls-files -co --exclude-standard -- '*.go' ':!*_test.go' ':!benchmark/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# bench-gate is the performance gate, made only of exact checks (no
# wall-clock number, so it can block merges on shared runners): the
# warm-scratch clustering kernel allocates nothing, a fabric with a
# disabled observer attached allocates exactly as much per send as a
# bare one, the forwarding fast path allocates nothing and emits what
# the frozen reference pipeline emits, a sender's header stream is
# written without allocating and equals the frozen header assembly byte
# for byte, the structural walk over the encoder's fanout-shaped streams
# (header.StreamInfo, run per hop by Seek and Unmarshal) allocates
# nothing (BenchmarkStreamInfo prints its ns/op, not gated), a group install stays inside its allocation budget, a warm
# send allocates nothing whatever the size of its group, and nothing on
# the degraded fabric either (INT, s-rules, default p-rules, a failed
# spine), the Delivery a fabric reuses holds exactly what a send into
# fresh state holds, a copy in flight on
# the sync forwarder is a 32-byte event that queues exactly what the
# frozen whole-packet forwarder queued, a controller dropped after a
# membership op is collected by the next GC (no per-instance pool pins
# it into the next bulk install's heap), the controller state stream is
# the pinned bytes and the same at 1, 2 and 4 Ps, a bulk encode never
# speculates more than 2·workers chunks ahead of the element it commits
# (however slow the commit), a warm-scratch encoding
# stays inside its allocation budget (one word slab for the tree, the
# section bytes of each layer), a controller holding 5,000 bench-shaped
# groups stays inside its live heap per group, installed and restored by
# ReadState, ReadState restores them inside its allocation budget per
# group, and their state stream stays inside its bytes per group
# (BenchmarkInstallBatch and BenchmarkWriteState print their ns/op, and
# BenchmarkReadState its ns/op at 1 and 2 Ps, none gated), every WAL
# record type is its pinned payload
# and a batch's record — its members sorted by one worker per P — is the
# same pinned bytes at 1, 2 and 4 Ps, every hypervisor of
# the bench topology accepts its own groups and counts each copy once
# (BenchmarkDeliverFull checks its counts; its ns/op is printed, not
# gated), a packet
# whose INT section follows an absent downstream section is forwarded on
# both forwarders, and short runs of all five workloads of the repo's
# benchmark (BENCHMARK.json) pass their own oracles and exit 0: the data
# path (fanout-sync); its slow paths — default p-rules, s-rules, INT
# stamped after the downstream sections, failed switches
# (fanout-degraded); every header through Marshal -> Unmarshal ->
# StreamInfo on real loopback sockets (fanout-udp); the control path
# (lifecycle); and bulk install + snapshot + crash recovery, the only
# workload that drives InstallBatch, WriteState/ReadState and replay
# through a fingerprint oracle (bulk-recover).
bench-gate:
	$(GO) test -run 'TestAssignIntoWarmScratchZeroAlloc' -count=1 ./internal/cluster/
	$(GO) test -run 'TestObserverDisabledAddsNoAllocations' -count=1 -v ./internal/obs/
	$(GO) test -run 'TestProcessIntoZeroAllocs|TestProcessIntoEquivalence' -bench 'BenchmarkDeliverFull' -benchtime 200000x -count=1 ./internal/dataplane/
	$(GO) test -run 'TestSenderStreamMatchesOracle|TestAppendSenderStreamZeroAllocs|TestStreamInfoZeroAllocs|TestAbandonedControllerIsCollected|TestWriteStateSameBytesAnyProcs|TestStateFormatGolden|TestEncodeAllocationBudget|TestLiveHeapPerGroup|TestReadStateAllocationBudget|TestStateBytesPerGroup|TestEncodeBatchLookAheadIsBounded' -bench 'BenchmarkStreamInfo' -benchtime 1000000x -count=1 ./internal/controller/
	$(GO) test -run '^$$' -bench 'BenchmarkInstallBatch$$|BenchmarkWriteState$$' -benchtime 10x -count=1 ./internal/controller/
	$(GO) test -run '^$$' -bench 'BenchmarkReadState$$' -cpu 1,2 -benchtime 10x -count=1 ./internal/controller/
	$(GO) test -run 'TestRecordBytesGolden|TestBatchRecordSameBytesAnyProcs' -count=1 ./internal/durable/
	$(GO) test -run 'TestInstallWalkAllocationBudget|TestINTAfterAbsentDownstreamSection|TestSendAllocsIndependentOfGroupSize|TestSendAllocsZeroDegraded|TestDeliveryReusedAcrossSends|TestForwardEventIsCompact|TestForwardMatchesEagerDelivery' -count=1 ./internal/fabric/
	bash benchmark/run.sh --workload fanout-sync --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload fanout-degraded --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload fanout-udp --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload lifecycle --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload bulk-recover --seed 1 --seconds 2 --trace 0

# bench-all runs the full figure/table benchmark suite.
bench-all:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# fuzz gives each fuzz target a short budget; the checked-in seed
# corpora run as regression tests on every plain `go test` already,
# so this target only explores beyond them.
FUZZTIME ?= 10s
fuzz:
	@set -e; for t in wal:FuzzReplay rsm:FuzzUnmarshalCommand \
		header:FuzzDecode header:FuzzScanPipeline header:FuzzParseOuter \
		dataplane:FuzzInstallSenderFlow \
		cluster:FuzzAssignEquivalence durable:FuzzApplyRecord \
		controller:FuzzReadState; do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) ./internal/$${t%%:*}/; \
	done

# trace records the flight-recorder demo scenario and writes a Chrome
# trace_event JSON for chrome://tracing / Perfetto.
trace:
	$(GO) run ./cmd/elmo-sim -trace -traceout trace.json

# chaos runs the seeded fault-injection soaks on all three fabric
# tiers under the race detector (the soaks skip themselves in -short
# mode, so `go test -short ./...` stays fast), then the scripted
# fail->degrade->repair->reconverge scenario.
chaos:
	$(GO) test -race -run 'Chaos|Monitor|Injector|FaultPlan' -count=1 ./internal/chaos/
	$(GO) run ./cmd/elmo-sim -chaos -seed 7

# durable runs the WAL and durable-controller tests under the race
# detector — append and commit from concurrent callers, group commit,
# write-failure poisoning, the pinned segment bytes, crash recovery and
# replication — then the narrated WAL/snapshot/crash-recovery/failover
# scenario.
durable:
	$(GO) test -race -count=1 ./internal/wal/ ./internal/durable/
	$(GO) run ./cmd/elmo-sim -durable

# partition runs the leadership-fencing checks under the race detector
# — the stale-epoch rule over every leader write, the split-brain
# partition soak, the fencing-rejection demotion path, and the chaos
# partition primitives — then the narrated partition/epoch-takeover
# scenario.
partition:
	$(GO) test -race -run 'TestStaleEpochFencesEveryWrite' -count=1 ./internal/fabric/
	$(GO) test -race -run 'TestPartitionSoakSplitBrain|TestDeposedByFencingRejection' -count=1 ./internal/durable/
	$(GO) test -race -run 'TestPartition|TestHeal|TestPlanPartition' -count=1 ./internal/chaos/
	$(GO) run ./cmd/elmo-sim -partition
