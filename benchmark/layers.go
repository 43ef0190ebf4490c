package main

import "sort"

// Helpers that turn the system's own instruments and the kernel
// calibrations into per-layer metrics. Which end-to-end metric each
// should move is written down in README.md before anything is measured.

// histMeanMicros is sum/count of one labelled histogram series in a
// registry snapshot, in microseconds: exact, unlike a bucket quantile.
func histMeanMicros(snap map[string]float64, family, label string) float64 {
	count := snap[family+"_count{"+label+"}"]
	if count == 0 {
		return 0
	}
	return snap[family+"_sum{"+label+"}"] / count * 1e6
}

// walLayerMetrics reads the elmo_wal_* families. ops is the number of
// durable operations the snapshot covers; 0 means one per logged record.
func walLayerMetrics(m metrics, snap map[string]float64, ops float64) {
	appends := snap["elmo_wal_appends_total"]
	if ops == 0 {
		ops = appends
	}
	if ops == 0 {
		return
	}
	n := int(ops)
	m.set("wal.bytes_per_op", snap["elmo_wal_bytes_total"]/ops, "B", n)
	if batches := snap["elmo_wal_batches_total"]; batches > 0 {
		m.set("wal.records_per_batch", appends/batches, "count", int(batches))
	}
	for _, stage := range []string{"queue", "flush", "commit"} {
		m.set("wal."+stage+"_us", histMeanMicros(snap, "elmo_wal_latency_seconds", `stage="`+stage+`"`), "us", int(appends))
	}
}

// controlKernels measures the encode-side kernels on a workload's own
// groups. installed, when not nil, is the workload's controller, whose
// sender headers are then the ones measured; otherwise the bare
// controller of the batch kernels stands in.
func controlKernels(m metrics, topo *Topology, cfg CtrlConfig, installed *control, groups []groupInput) error {
	specs := make([]GroupSpec, len(groups))
	receivers := make([][]HostID, len(groups))
	for i := range groups {
		specs[i] = groups[i].spec()
		receivers[i] = groups[i].Receivers
	}
	bk, bare, err := batchKernelsFor(topo, cfg, specs, receivers)
	if err != nil {
		return err
	}
	m.set("controller.install_batch_s", bk.InstallBatchS, "s", len(specs))
	m.set("controller.encode_batch_s", bk.EncodeBatchS, "s", len(specs))
	m.set("controller.batch_recomputed", float64(bk.Recomputed), "count", 0)
	m.set("controller.write_state_s", bk.WriteStateS, "s", bk.StateBytes)
	m.set("controller.read_state_s", bk.ReadStateS, "s", bk.StateBytes)

	// The 100 largest groups: where clustering has the most to decide.
	bySize := make([]int, len(groups))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool {
		return len(groups[bySize[a]].Receivers) > len(groups[bySize[b]].Receivers)
	})
	largest := make([][]HostID, 0, 100)
	for _, i := range bySize[:min(100, len(bySize))] {
		largest = append(largest, receivers[i])
	}
	ns, allocs, err := clusterKernel(topo, cfg, largest)
	if err != nil {
		return err
	}
	m.set("cluster.assign_ns", ns, "ns", len(largest))
	m.set("cluster.assign_allocs", allocs, "count", len(largest))

	sample := receivers[:min(512, len(receivers))]
	ns, allocs, err = encodeKernel(topo, cfg, sample)
	if err != nil {
		return err
	}
	m.set("controller.encode_us", ns/1e3, "us", len(sample))
	m.set("controller.encode_allocs", allocs, "count", len(sample))

	if installed == nil {
		installed = bare
	}
	refs := make([]sendRef, 0, 256)
	for i := 0; i < len(groups) && len(refs) < cap(refs); i++ {
		refs = append(refs, sendRef{Key: groups[i].Key, Sender: groups[i].Senders[0]})
	}
	hk, err := headerKernelsFor(topo, installed, refs)
	if err != nil {
		return err
	}
	m.set("header.stream_bytes_mean", hk.StreamBytesMean, "B", len(refs))
	m.set("header.encode_ns", hk.EncodeNs, "ns", len(refs))
	m.set("header.decode_ns", hk.DecodeNs, "ns", len(refs))
	return nil
}

// exactLayerMetrics reports the per-send exact counts of a workload.
func exactLayerMetrics(m metrics, e exactCounts) {
	m.set("fabric.hops_per_send", ratio(e.Hops, e.Sends), "count", e.Sends)
	m.set("fabric.copies_per_send", ratio(e.Copies, e.Sends), "count", e.Sends)
	m.set("fabric.spurious_per_send", ratio(e.Spurious, e.Sends), "count", e.Sends)
	m.set("fabric.link_bytes_per_send", ratio(e.LinkBytes, e.Sends), "B", e.Sends)
}

func (dk dataplaneKernels) report(m metrics) {
	m.set("dataplane.encap_ns", dk.EncapNs, "ns", 0)
	m.set("dataplane.leaf_process_ns", dk.LeafNs, "ns", 0)
	m.set("dataplane.spine_process_ns", dk.SpineNs, "ns", 0)
	m.set("dataplane.core_process_ns", dk.CoreNs, "ns", 0)
	m.set("dataplane.process_allocs", dk.ProcessAllocs, "count", 0)
	m.set("dataplane.deliver_ns", dk.DeliverNs, "ns", 0)
	m.set("dataplane.marshal_ns", dk.MarshalNs, "ns", 0)
	m.set("dataplane.unmarshal_ns", dk.UnmarshalNs, "ns", 0)
}
