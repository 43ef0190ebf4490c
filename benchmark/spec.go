package main

import (
	"fmt"
	"sort"
)

// spec.go is the benchmark's contract: the workloads and metrics that
// BENCHMARK.json lists. TestBenchmarkJSONMatchesTheTables keeps the
// checked-in file equal to these tables.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Exact marks a count that repeats bit for bit at one seed. Its Bound
	// only has to cover the spread between seeds, for runs that are
	// pooled; -compare pairs such a metric by seed and allows it to get
	// worse by nothing.
	Exact bool `json:"-"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const runSeconds = 20

var workloadDefs = []workloadDef{
	{"lifecycle", "tenant-visible control path, one closed-loop client, WAL written but not fsynced: wal and durable do most of the work, dataplane almost none"},
	{"bulk-recover", "bulk install, snapshot and crash recovery without fsync: encode and replay dominate; the bypass for any WAL change"},
	{"fanout-sync", "steady-state forwarding on the p-rule fast path: dataplane and fabric do all the work, controller and WAL none"},
	{"fanout-degraded", "same send loop with s-rules, default rules, INT and failed switches: a fast-path gain that taxes the slow path shows"},
	{"fanout-udp", "the same packets over loopback sockets: marshal, socket, batched read and parse per hop dominate; fanout-sync is its bypass"},
}

// Every workload reports every end-to-end metric. ops_per_s and op_*_us
// are about the workload's own operation, which README.md defines per
// workload.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25, false},
	{"op_p50_us", "us", "lower", 0.25, false},
	{"op_p90_us", "us", "lower", 0.25, false},
	{"prule_coverage", "ratio", "higher", 0.05, true},
	{"wire_overhead_ratio", "ratio", "lower", 0.08, true},
	{"peak_rss_mb", "MB", "lower", 0.20, false},
	{"setup_s", "s", "lower", 0.25, false},
}

var perLayerDefs = []layerDef{
	{"wal.records_per_batch", "count", "higher"},
	{"wal.queue_us", "us", "lower"},
	{"wal.flush_us", "us", "lower"},
	{"wal.commit_us", "us", "lower"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.replay_records_per_s", "1/s", "higher"},
	{"durable.create_us", "us", "lower"},
	{"durable.member_update_us", "us", "lower"},
	{"durable.remove_us", "us", "lower"},
	{"durable.install_groups_per_s", "1/s", "higher"},
	{"durable.snapshot_s", "s", "lower"},
	{"durable.snapshot_bytes", "B", "lower"},
	{"durable.recovery_groups_per_s", "1/s", "higher"},
	{"durable.recover_snapshot_s", "s", "lower"},
	{"durable.recover_replay_s", "s", "lower"},
	{"controller.create_us", "us", "lower"},
	{"controller.join_us", "us", "lower"},
	{"controller.leave_us", "us", "lower"},
	{"controller.encode_us", "us", "lower"},
	{"controller.encode_allocs", "count", "lower"},
	{"controller.install_batch_s", "s", "lower"},
	{"controller.encode_batch_s", "s", "lower"},
	{"controller.batch_recomputed", "count", "lower"},
	{"controller.write_state_s", "s", "lower"},
	{"controller.read_state_s", "s", "lower"},
	{"cluster.assign_ns", "ns", "lower"},
	{"cluster.assign_allocs", "count", "lower"},
	{"header.stream_bytes_mean", "B", "lower"},
	{"header.encode_ns", "ns", "lower"},
	{"header.decode_ns", "ns", "lower"},
	{"dataplane.encap_ns", "ns", "lower"},
	{"dataplane.leaf_process_ns", "ns", "lower"},
	{"dataplane.spine_process_ns", "ns", "lower"},
	{"dataplane.core_process_ns", "ns", "lower"},
	{"dataplane.process_allocs", "count", "lower"},
	{"dataplane.deliver_ns", "ns", "lower"},
	{"dataplane.srule_hit_ratio", "ratio", "lower"},
	{"dataplane.default_hit_ratio", "ratio", "lower"},
	{"dataplane.marshal_ns", "ns", "lower"},
	{"dataplane.unmarshal_ns", "ns", "lower"},
	{"fabric.install_us", "us", "lower"},
	{"fabric.uninstall_us", "us", "lower"},
	{"fabric.first_send_us", "us", "lower"},
	{"fabric.send_us", "us", "lower"},
	{"fabric.hops_per_send", "count", "lower"},
	{"fabric.copies_per_send", "count", "higher"},
	{"fabric.spurious_per_send", "count", "lower"},
	{"fabric.link_bytes_per_send", "B", "lower"},
	{"fabric.send_allocs", "count", "lower"},
	{"fabric.self_ns_per_hop", "ns", "lower"},
	{"udpfabric.datagrams_per_copy", "count", "lower"},
	{"udpfabric.send_call_us", "us", "lower"},
	{"udpfabric.window_p50_us", "us", "lower"},
	{"udpfabric.read_retries", "count", "lower"},
	{"udpfabric.host_queue_drops", "count", "lower"},
	{"udpfabric.send_errors", "count", "lower"},
	{"udpfabric.malformed", "count", "lower"},
	{"obs.observer_overhead_ratio", "ratio", "higher"},
	{"harness.op_self_ratio", "ratio", "lower"},
	{"harness.cpu_s", "s", "lower"},
	{"harness.trace_overhead_ratio", "ratio", "higher"},
}

// metricValue is one reported measurement. N is the number of samples
// behind a timing, 0 for an exact count or a derived value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type metrics map[string]metricValue

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metricValue{Value: v, Unit: unit, N: n}
}

func (m metrics) note(name, note string) {
	mv := m[name]
	mv.Note = note
	m[name] = mv
}

// complete checks a result carries exactly the metrics the contract
// lists for its mode, filling a layer that did no work with 0.
func (m metrics) complete(traced bool) error {
	want := make(map[string]string)
	if traced {
		for _, d := range perLayerDefs {
			want[d.Name] = d.Unit
			if _, ok := m[d.Name]; !ok {
				m[d.Name] = metricValue{Unit: d.Unit, Note: "layer idle on this workload"}
			}
		}
	} else {
		for _, d := range endToEndDefs {
			want[d.Name] = d.Unit
		}
	}
	var problems []string
	for name, unit := range want {
		mv, ok := m[name]
		switch {
		case !ok:
			problems = append(problems, name+" missing")
		case mv.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s in %s, contract says %s", name, mv.Unit, unit))
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			problems = append(problems, name+" not in the contract")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("result does not match the contract: %v", problems)
	}
	return nil
}

// zeroes lists the metrics that read 0. A later change is judged by how
// far it moves an end-to-end metric as a share of its value, so none of
// those may be 0 at full scale.
func (m metrics) zeroes() []string {
	var names []string
	for name, mv := range m {
		if mv.Value == 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
