package controller

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elmo/internal/bitmap"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// randSpecs builds n deterministic group specs over numHosts hosts.
// Every group has at least one receiver and one sender.
func randSpecs(tenant uint32, n int, seed int64, numHosts int) []BatchSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]BatchSpec, n)
	for i := range specs {
		size := 2 + rng.Intn(10)
		members := make(map[topology.HostID]Role, size)
		first := topology.HostID(rng.Intn(numHosts))
		members[first] = RoleBoth
		for len(members) < size {
			h := topology.HostID(rng.Intn(numHosts))
			if _, ok := members[h]; ok {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				members[h] = RoleSender
			case 1:
				members[h] = RoleReceiver
			default:
				members[h] = RoleBoth
			}
		}
		specs[i] = BatchSpec{Key: GroupKey{Tenant: tenant, Group: uint32(i + 1)}, Members: members}
	}
	return specs
}

// occSnapshot reads the full occupancy vectors.
func occSnapshot(c *Controller) ([]int, []int) {
	topo := c.Topology()
	leaves := make([]int, topo.NumLeaves())
	for l := range leaves {
		leaves[l] = c.occ.LeafCount(topology.LeafID(l))
	}
	spines := make([]int, topo.NumSpines())
	for s := range spines {
		spines[s] = c.occ.SpineCount(topology.SpineID(s))
	}
	return leaves, spines
}

// requireOccupancyConserved asserts the occupancy counters equal what
// the published encodings hold: a leaf's count is the number of live
// groups with an s-rule on it, a physical spine's the number of live
// groups with an s-rule on its pod. An admission that charged state it
// did not publish, or published state it did not charge, breaks it.
func requireOccupancyConserved(t *testing.T, c *Controller) {
	t.Helper()
	topo := c.Topology()
	wantLeaf := make([]int, topo.NumLeaves())
	wantSpine := make([]int, topo.NumSpines())
	for _, enc := range encSnapshot(c) {
		for _, l := range enc.LeafSRules {
			wantLeaf[l]++
		}
		for s := range wantSpine {
			if slices.Contains(enc.SpineSRules, topo.SpinePod(topology.SpineID(s))) {
				wantSpine[s]++
			}
		}
	}
	gotLeaf, gotSpine := occSnapshot(c)
	if !reflect.DeepEqual(gotLeaf, wantLeaf) {
		t.Fatalf("leaf occupancy %v, but the live encodings hold %v", gotLeaf, wantLeaf)
	}
	if !reflect.DeepEqual(gotSpine, wantSpine) {
		t.Fatalf("spine occupancy %v, but the live encodings hold %v", gotSpine, wantSpine)
	}
}

// encSnapshot collects every group's encoding.
func encSnapshot(c *Controller) map[GroupKey]*Encoding {
	out := make(map[GroupKey]*Encoding)
	for _, k := range c.GroupKeys() {
		out[k] = c.Group(k).Enc
	}
	return out
}

// requireSameState asserts two controllers hold byte-identical group
// encodings, occupancy and update stats.
func requireSameState(t *testing.T, label string, want, got *Controller) {
	t.Helper()
	wantEnc, gotEnc := encSnapshot(want), encSnapshot(got)
	if len(wantEnc) != len(gotEnc) {
		t.Fatalf("%s: %d groups, want %d", label, len(gotEnc), len(wantEnc))
	}
	for k, we := range wantEnc {
		ge, ok := gotEnc[k]
		if !ok {
			t.Fatalf("%s: group %v missing", label, k)
		}
		if !reflect.DeepEqual(we, ge) {
			t.Fatalf("%s: group %v encoding differs:\nwant %+v\ngot  %+v", label, k, we, ge)
		}
	}
	wl, ws := occSnapshot(want)
	gl, gs := occSnapshot(got)
	if !reflect.DeepEqual(wl, gl) {
		t.Fatalf("%s: leaf occupancy %v, want %v", label, gl, wl)
	}
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("%s: spine occupancy %v, want %v", label, gs, ws)
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("%s: stats differ:\nwant %+v\ngot  %+v", label, want.Stats(), got.Stats())
	}
}

// TestInstallBatchDeterministicAcrossWorkers runs the same batch with a
// deliberately tight s-rule capacity (so speculative encodings race
// capacity boundaries and get recomputed) and asserts the committed
// state is byte-identical — fingerprint, encodings, occupancy and stats
// — for every worker count in 1..8.
func TestInstallBatchDeterministicAcrossWorkers(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(1)
	cfg.SRuleCapacity = 2 // tight: forces contention on the shared counters
	specs := randSpecs(7, 200, 42, topo.NumHosts())

	var base *Controller
	for workers := 1; workers <= 8; workers++ {
		c, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.InstallBatch(specs, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Installed != len(specs) {
			t.Fatalf("workers=%d: installed %d, want %d", workers, res.Installed, len(specs))
		}
		if workers == 1 {
			if res.Recomputed != 0 {
				t.Fatalf("serial path recomputed %d", res.Recomputed)
			}
			base = c
			continue
		}
		label := fmt.Sprintf("workers=%d", workers)
		if got, want := c.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, want %s", label, got, want)
		}
		requireSameState(t, label, base, c)
	}
}

// TestInstallBatchMatchesSerialCreateGroup asserts a parallel batch is
// indistinguishable from calling CreateGroup per spec in order —
// encodings, occupancy, stats, and sender headers.
func TestInstallBatchMatchesSerialCreateGroup(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(1)
	cfg.SRuleCapacity = 3
	specs := randSpecs(3, 150, 99, topo.NumHosts())

	serial, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if _, err := serial.CreateGroup(s.Key, s.Members); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.InstallBatch(specs, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "batch vs serial", serial, batch)

	// Headers come out identical too.
	for _, s := range specs[:20] {
		for h, r := range s.Members {
			if !r.CanSend() {
				continue
			}
			hw, err1 := serial.HeaderFor(s.Key, h)
			hb, err2 := batch.HeaderFor(s.Key, h)
			if err1 != nil || err2 != nil {
				t.Fatalf("HeaderFor(%v, %d): %v / %v", s.Key, h, err1, err2)
			}
			if !reflect.DeepEqual(hw, hb) {
				t.Fatalf("header differs for %v sender %d", s.Key, h)
			}
		}
	}
}

// TestInstallBatchDuplicateKey checks that a failing element stops the
// batch with a *BatchError carrying its index, leaving all earlier
// elements committed exactly like the serial loop would: in a batch of
// one chunk, and mid-way through a batch of several at 4 workers, whose
// later chunks are in flight when the error comes back.
func TestInstallBatchDuplicateKey(t *testing.T) {
	topo := paperTopo()
	for _, tc := range []struct{ n, dup int }{{30, 17}, {5*batchChunkSize + 11, 3*batchChunkSize + 5}} {
		specs := randSpecs(5, tc.n, 7, topo.NumHosts())
		specs[tc.dup].Key = specs[4].Key // duplicate mid-batch

		c, err := New(topo, testConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.InstallBatch(specs, BatchOptions{Workers: 4})
		if err == nil {
			t.Fatalf("%d specs: expected duplicate-key error", tc.n)
		}
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("error %v is not a *BatchError", err)
		}
		if be.Index != tc.dup {
			t.Fatalf("%d specs: failing index %d, want %d", tc.n, be.Index, tc.dup)
		}
		if got := c.NumGroups(); got != tc.dup {
			t.Fatalf("%d specs: %d groups committed, want %d", tc.n, got, tc.dup)
		}
		// The committed prefix matches a serial replay of specs[:dup].
		serial, err := New(topo, testConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs[:tc.dup] {
			if _, err := serial.CreateGroup(s.Key, s.Members); err != nil {
				t.Fatal(err)
			}
		}
		requireSameState(t, fmt.Sprintf("%d-spec prefix", tc.n), serial, c)
	}
}

// TestEncodeBatchLookAheadIsBounded: however slow the commit step (the
// sim's installs, sends and uninstalls), the workers speculate at most
// 2·workers chunks ahead of the element being committed, so the
// encodings held ahead of it stay bounded instead of growing with n.
func TestEncodeBatchLookAheadIsBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	topo := paperTopo()
	cfg := testConfig(0)
	const workers = 4
	n := 24 * batchChunkSize
	specs := PrepareBatch(randSpecs(1, n, 5, topo.NumHosts()), 1)
	var highest atomic.Int64 // the highest index receivers was called for
	highest.Store(-1)
	receivers := func(i int) []topology.HostID {
		for h := highest.Load(); int64(i) > h; h = highest.Load() {
			if highest.CompareAndSwap(h, int64(i)) {
				break
			}
		}
		return hostsWith(specs[i].Members, Role.CanReceive)
	}
	worst := 0
	commit := func(i int, _ *Encoding) error {
		worst = max(worst, int(highest.Load())-i)
		if i%batchChunkSize == 0 {
			time.Sleep(time.Millisecond) // a commit step slower than encoding
		}
		runtime.Gosched()
		return nil
	}
	if _, err := EncodeBatch(topo, cfg, NewOccupancy(topo, cfg.SRuleCapacity), n, workers, receivers, commit); err != nil {
		t.Fatal(err)
	}
	if bound := 2 * workers * batchChunkSize; worst > bound {
		t.Fatalf("speculated %d elements ahead of the commit, bound %d", worst, bound)
	}
}

// TestInOrderContract pins the runner every bulk path shares: consume
// sees each chunk once, in ascending order; a chunk is produced only
// after the chunk 2·workers before it was consumed, so its slot is
// never overwritten while it waits; and the first consume error is
// returned with no consume after it.
func TestInOrderContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	errStop := errors.New("stop")
	for _, workers := range []int{1, 2, 4} {
		for _, chunks := range []int{0, 1, 3, 50} {
			for _, failAt := range []int{-1, chunks / 2} {
				label := fmt.Sprintf("workers=%d chunks=%d failAt=%d", workers, chunks, failAt)
				var consumed atomic.Int64
				next := 0
				err := inOrder(chunks, workers,
					func(ci int, slot *int) {
						if done := int(consumed.Load()); ci >= done+2*workers {
							t.Errorf("%s: chunk %d produced with %d consumed", label, ci, done)
						}
						*slot = ci
					},
					func(ci int, slot *int) error {
						if ci != next || *slot != ci {
							t.Errorf("%s: consumed chunk %d (slot holds %d), want %d", label, ci, *slot, next)
						}
						next++
						consumed.Add(1)
						if ci == failAt {
							return errStop
						}
						return nil
					})
				wantErr, wantNext := error(nil), chunks
				if failAt >= 0 && failAt < chunks {
					wantErr, wantNext = errStop, failAt+1
				}
				if !errors.Is(err, wantErr) || next != wantNext {
					t.Errorf("%s: err %v after %d consumes, want %v after %d", label, err, next, wantErr, wantNext)
				}
			}
		}
	}
}

// TestInvalidMemberIsAnOpError: a host outside the topology or a role
// with unknown bits is rejected by every path that takes members from
// outside — never a panic in the topology accessors — and the
// controller keeps serving. In a batch the bad element stops the batch
// at its index for every worker count, like any other failing element.
func TestInvalidMemberIsAnOpError(t *testing.T) {
	topo := paperTopo()
	c, err := New(topo, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 1, Group: 1}
	outside := topology.HostID(topo.NumHosts())
	for name, members := range map[string]map[topology.HostID]Role{
		"host past the end": {0: RoleSender, outside: RoleReceiver},
		"negative host":     {0: RoleSender, -1: RoleReceiver},
		"unknown role bits": {0: RoleSender, 1: RoleBoth + 1},
		"empty role":        {0: RoleSender, 1: 0},
	} {
		if _, err := c.CreateGroup(key, members); err == nil {
			t.Fatalf("CreateGroup accepted %s", name)
		}
	}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleSender, 16: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(key, outside, RoleReceiver); err == nil {
		t.Fatal("Join accepted a host outside the topology")
	}
	if err := c.Join(key, 17, RoleBoth+1); err == nil {
		t.Fatal("Join accepted unknown role bits")
	}
	if err := c.Join(key, 17, RoleReceiver); err != nil {
		t.Fatalf("controller stopped serving after rejected ops: %v", err)
	}

	for _, workers := range []int{1, 4} {
		specs := randSpecs(5, 30, 7, topo.NumHosts())
		specs[17].Members[outside] = RoleReceiver
		b, err := New(topo, testConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		_, err = b.InstallBatch(specs, BatchOptions{Workers: workers})
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 17 {
			t.Fatalf("workers=%d: error %v, want *BatchError at index 17", workers, err)
		}
		if got := b.NumGroups(); got != 17 {
			t.Fatalf("workers=%d: %d groups committed, want 17", workers, got)
		}
	}
}

func TestInstallBatchEmpty(t *testing.T) {
	c, err := New(paperTopo(), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.InstallBatch(nil, BatchOptions{Workers: 8})
	if err != nil || res.Installed != 0 {
		t.Fatalf("empty batch: res=%+v err=%v", res, err)
	}
}

// traceKinds extracts the control-event kinds for a group key.
func traceKinds(rec *trace.FlightRecorder, key GroupKey) []trace.Kind {
	var kinds []trace.Kind
	for _, ev := range rec.Snapshot() {
		if ev.Cat == trace.CatControl && ev.VNI == key.Tenant && ev.Group == key.Group {
			kinds = append(kinds, ev.Kind)
		}
	}
	return kinds
}

// requireOneRollback asserts a failed membership op left exactly one
// rollback event for the group, carrying the host it edited.
func requireOneRollback(t *testing.T, rec *trace.FlightRecorder, key GroupKey, host topology.HostID) {
	t.Helper()
	var args []int64
	for _, ev := range rec.Snapshot() {
		if ev.Kind == trace.KindRollback && ev.VNI == key.Tenant && ev.Group == key.Group {
			args = append(args, ev.Arg)
		}
	}
	if len(args) != 1 || args[0] != int64(host) {
		t.Fatalf("rollback events carry %v, want one carrying host %d", args, host)
	}
}

// TestJoinRollbackAccounting is the regression test for the rollback
// accounting bug: a Join whose retree fails (legacy leaf table full)
// must leave the member's hypervisor counter uncharged, revert the
// membership, keep the old encoding and occupancy, and emit only the
// rollback trace event, once, carrying the host — no Join event.
func TestJoinRollbackAccounting(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.SRuleCapacity = 1
	cfg.LegacyLeaves = []topology.LeafID{0} // leaf 0 must use s-rules
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Config{})
	rec.Enable(trace.CatControl)
	c.SetTracer(rec)

	// Group A owns leaf 0's single table slot.
	keyA := GroupKey{Tenant: 1, Group: 1}
	if _, err := c.CreateGroup(keyA, map[topology.HostID]Role{0: RoleBoth, 8: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	// Group B has no leaf-0 receivers.
	keyB := GroupKey{Tenant: 1, Group: 2}
	gb, err := c.CreateGroup(keyB, map[topology.HostID]Role{16: RoleBoth, 17: RoleReceiver})
	if err != nil {
		t.Fatal(err)
	}
	oldEnc := gb.Enc
	leavesBefore, spinesBefore := occSnapshot(c)
	hypBefore := c.Stats().Hypervisor[2]

	// Joining a leaf-0 receiver needs a legacy s-rule there — table full.
	if err := c.Join(keyB, 2, RoleReceiver); !errors.Is(err, ErrLegacyTableFull) {
		t.Fatalf("Join error = %v, want ErrLegacyTableFull", err)
	}

	if got := c.Stats().Hypervisor[2]; got != hypBefore {
		t.Fatalf("hypervisor 2 charged %d updates for a rolled-back join", got-hypBefore)
	}
	if gb.RoleOf(2) != 0 {
		t.Fatal("membership not reverted after failed join")
	}
	if gb.Enc != oldEnc {
		t.Fatal("encoding replaced despite rollback")
	}
	leavesAfter, spinesAfter := occSnapshot(c)
	if !reflect.DeepEqual(leavesBefore, leavesAfter) || !reflect.DeepEqual(spinesBefore, spinesAfter) {
		t.Fatal("occupancy changed by rolled-back join")
	}
	for _, k := range traceKinds(rec, keyB) {
		if k == trace.KindJoin {
			t.Fatal("Join trace event emitted for a rolled-back join")
		}
	}
	requireOneRollback(t, rec, keyB, 2)

	// A successful join after the rollback charges exactly once.
	if err := c.Join(keyB, 18, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hypervisor[18]; got != 1 {
		t.Fatalf("hypervisor 18 = %d updates, want 1", got)
	}
	requireOccupancyConserved(t, c)
}

// TestLeaveRollbackAccounting exercises the symmetric Leave rollback.
// A shrinking receiver set normally never needs new s-rules, so the
// test plants an extra legacy-leaf receiver behind the encoder's back
// (white-box, in-package) to make the re-encode fail. The incremental
// churn path re-encodes from the cached tree rather than the member
// list, so the plant goes into both: the tree entry trips the legacy
// capacity check in the incremental leaf re-encode, and the member
// keeps the group's members consistent with its tree.
func TestLeaveRollbackAccounting(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.SRuleCapacity = 1
	cfg.LegacyLeaves = []topology.LeafID{0}
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Config{})
	rec.Enable(trace.CatControl)
	c.SetTracer(rec)

	keyA := GroupKey{Tenant: 1, Group: 1}
	if _, err := c.CreateGroup(keyA, map[topology.HostID]Role{0: RoleBoth, 8: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	keyB := GroupKey{Tenant: 1, Group: 2}
	gb, err := c.CreateGroup(keyB, map[topology.HostID]Role{16: RoleBoth, 17: RoleReceiver})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a leaf-0 receiver without retreeing: the next re-encode will
	// demand leaf 0's (full) legacy table.
	gb.Members = append([]Member{{Host: 1, Role: RoleReceiver}}, gb.Members...)
	gb.Enc.LeafPorts[topo.HostLeaf(1)] = bitmap.FromPorts(topo.LeafDownWidth(), topo.HostPort(1))
	oldEnc := gb.Enc
	hypBefore := c.Stats().Hypervisor[17]

	if err := c.Leave(keyB, 17, RoleReceiver); !errors.Is(err, ErrLegacyTableFull) {
		t.Fatalf("Leave error = %v, want ErrLegacyTableFull", err)
	}
	if got := c.Stats().Hypervisor[17]; got != hypBefore {
		t.Fatalf("hypervisor 17 charged for a rolled-back leave")
	}
	if gb.RoleOf(17) != RoleReceiver {
		t.Fatal("membership not restored after failed leave")
	}
	if gb.Enc != oldEnc {
		t.Fatal("encoding replaced despite rollback")
	}
	for _, k := range traceKinds(rec, keyB) {
		if k == trace.KindLeave {
			t.Fatal("Leave trace event emitted for a rolled-back leave")
		}
	}
	requireOneRollback(t, rec, keyB, 17)
	requireOccupancyConserved(t, c)
}

// TestConcurrentControllerStress (satellite: run under -race via `make
// race`) drives concurrent InstallBatch calls, per-group Join/Leave
// churn, and header/occupancy readers, then asserts the final state
// matches a serial replay. Capacity is ample so group encodings are
// independent of admission interleaving and the serial replay is the
// unique correct outcome.
func TestConcurrentControllerStress(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(1)
	cfg.SRuleCapacity = 10000
	numHosts := topo.NumHosts()

	baseSpecs := randSpecs(1, 40, 11, numHosts)
	batchA := randSpecs(10, 60, 12, numHosts)
	batchB := randSpecs(11, 60, 13, numHosts)

	// Scripted churn: per base group, a deterministic op sequence.
	type churnOp struct {
		join bool
		host topology.HostID
		role Role
	}
	ops := make([][]churnOp, len(baseSpecs))
	rng := rand.New(rand.NewSource(14))
	for i, s := range baseSpecs {
		var members []topology.HostID
		for h := range s.Members {
			members = append(members, h)
		}
		for j := 0; j < 12; j++ {
			h := topology.HostID(rng.Intn(numHosts))
			ops[i] = append(ops[i], churnOp{join: true, host: h, role: RoleReceiver})
		}
	}

	run := func(c *Controller, concurrent bool) {
		t.Helper()
		for _, s := range baseSpecs {
			if _, err := c.CreateGroup(s.Key, s.Members); err != nil {
				t.Fatal(err)
			}
		}
		applyChurn := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for _, op := range ops[i] {
					if op.join {
						c.Join(baseSpecs[i].Key, op.host, op.role) // may no-op; must not error
					} else {
						c.Leave(baseSpecs[i].Key, op.host, op.role)
					}
				}
			}
		}
		if !concurrent {
			applyChurn(0, len(ops))
			if _, err := c.InstallBatch(batchA, BatchOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.InstallBatch(batchB, BatchOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			return
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.InstallBatch(batchA, BatchOptions{Workers: 4})
			errs <- err
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.InstallBatch(batchB, BatchOptions{Workers: 2})
			errs <- err
		}()
		// Churn workers own disjoint group ranges, preserving per-group
		// op order.
		mid := len(ops) / 2
		wg.Add(2)
		go func() { defer wg.Done(); applyChurn(0, mid) }()
		go func() { defer wg.Done(); applyChurn(mid, len(ops)) }()
		// Readers race everything.
		stopReaders := make(chan struct{})
		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for _, s := range baseSpecs[:8] {
					for h, r := range s.Members {
						if r.CanSend() {
							c.HeaderFor(s.Key, h)
						}
					}
				}
				for l := 0; l < topo.NumLeaves(); l++ {
					c.occ.LeafCount(topology.LeafID(l))
				}
				c.GroupKeys()
				c.NumGroups()
			}
		}()
		wg.Wait()
		close(stopReaders)
		readers.Wait()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	serial, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(serial, false)
	concurrent, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(concurrent, true)

	// Final state must match the serial replay exactly — except stats,
	// whose Join charges depend on global op interleaving only through
	// no-op detection; with join-only churn per host they do not. Compare
	// everything.
	requireSameState(t, "concurrent vs serial", serial, concurrent)
	requireOccupancyConserved(t, concurrent)
}

// TestInstallBatchRacesExternalCreates: goroutines CreateGroup the very
// keys a running 4-worker InstallBatch carries, on tables tight enough
// that admissions also contend for s-rules. Each key must end up
// installed exactly once and won by exactly one of its two callers; a
// batch that lost a key stops there with a *BatchError naming the index
// and everything before it installed; and no s-rule is charged for a
// loser's encoding.
func TestInstallBatchRacesExternalCreates(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(1)
	cfg.SRuleCapacity = 2
	for trial := int64(0); trial < 4; trial++ {
		specs := randSpecs(4, 600, 60+trial, topo.NumHosts())
		c, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Once the batch is under way, two creators walk the keys down
		// from the end and one up from the middle, so the batch meets
		// them part-way through. Only the winner of a key writes its slot.
		created := make([]bool, len(specs))
		var wg sync.WaitGroup
		for _, order := range [][2]int{{len(specs) - 1, -2}, {len(specs) - 2, -2}, {len(specs) / 2, 1}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c.NumGroups() == 0 {
					runtime.Gosched()
				}
				for i := order[0]; i >= 0 && i < len(specs); i += order[1] {
					if _, err := c.CreateGroup(specs[i].Key, specs[i].Members); err == nil {
						created[i] = true
					}
				}
			}()
		}
		res, err := c.InstallBatch(specs, BatchOptions{Workers: 4})
		wg.Wait()
		t.Logf("trial %d: batch installed %d of %d (recomputed %d): %v", trial, res.Installed, len(specs), res.Recomputed, err)
		stop := len(specs)
		if err != nil {
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("trial %d: error %v is not a *BatchError", trial, err)
			}
			stop = be.Index
			if !created[stop] {
				t.Fatalf("trial %d: batch lost index %d to nobody: %v", trial, stop, err)
			}
		}
		if res.Installed != stop {
			t.Fatalf("trial %d: batch installed %d, want every spec before %d", trial, res.Installed, stop)
		}
		for i, s := range specs {
			if created[i] == (i < stop) {
				t.Fatalf("trial %d: key %d (batch stopped at %d): create succeeded = %t", trial, i, stop, created[i])
			}
			if g := c.Group(s.Key); g == nil || !reflect.DeepEqual(g.Members, membersOf(s.Members)) {
				t.Fatalf("trial %d: key %d not installed with its members", trial, i)
			}
		}
		if got := c.NumGroups(); got != len(specs) {
			t.Fatalf("trial %d: %d groups, want %d", trial, got, len(specs))
		}
		requireOccupancyConserved(t, c)
	}
}
