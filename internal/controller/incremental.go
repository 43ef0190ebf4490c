package controller

import (
	"elmo/internal/bitmap"
	"elmo/internal/topology"
)

// This file implements the incremental churn re-encode: a Join or
// Leave changes exactly one receiver, so instead of rebuilding the
// whole multicast tree from the member list and re-running Algorithm 1
// on both layers, the controller delta-patches the cached per-layer
// member state (Encoding.LeafPorts / Encoding.PodLeaves) and re-runs
// the clustering only for layers whose membership actually changed:
//
//   - The leaf layer always re-encodes — the changed host's port
//     bitmap changed by construction.
//   - The spine layer re-encodes only when the pod→leaf structure
//     changed (a leaf gained its first receiver or lost its last one);
//     a port-only change leaves PodLeaves untouched and the previous
//     spine section is reused verbatim.
//
// Encodings are immutable once committed, so the new encoding may
// freely alias maps and bitmaps of the old one: deltaTree clones only
// what it mutates (copy-on-write), and the reused spine section is
// shared outright. Occupancy stays exact because the admission
// transaction releases the old encoding and commits the new one — a
// shared SpineSRules map nets to zero.
//
// Under s-rule capacity contention the reused spine section can differ
// from what a full recompute at the same instant would produce: a pod
// that spilled to the default rule when the old encoding was computed
// might find table space freed since then, and a full recompute would
// upgrade it to an s-rule. The reuse keeps the old placement instead.
// That is capacity-safe (the held rules are re-committed, never grown)
// and the redundancy accounting matches the encoding actually
// installed.

// deltaTree builds the tree section (Pods / LeafPorts / PodLeaves) of
// a new encoding by applying a single receiver delta to old: host was
// added when joined, removed otherwise. It reports whether the
// pod→leaf structure changed, i.e. whether the spine layer must be
// re-encoded. Unchanged maps and bitmaps are shared with old.
func deltaTree(topo *topology.Topology, old *Encoding, host topology.HostID, joined bool) (e *Encoding, podsChanged bool) {
	leaf := topo.HostLeaf(host)
	pod := topo.LeafPod(leaf)
	port := topo.HostPort(host)

	e = &Encoding{Pods: old.Pods, PodLeaves: old.PodLeaves}
	e.LeafPorts = make(map[topology.LeafID]bitmap.Bitmap, len(old.LeafPorts)+1)
	for l, bm := range old.LeafPorts {
		e.LeafPorts[l] = bm
	}

	leafAdded, leafRemoved := false, false
	if joined {
		if lp, ok := e.LeafPorts[leaf]; ok {
			lp = lp.Clone()
			lp.Set(port)
			e.LeafPorts[leaf] = lp
		} else {
			lp = bitmap.New(topo.LeafDownWidth())
			lp.Set(port)
			e.LeafPorts[leaf] = lp
			leafAdded = true
		}
	} else {
		lp := e.LeafPorts[leaf].Clone()
		lp.Clear(port)
		if lp.IsEmpty() {
			delete(e.LeafPorts, leaf)
			leafRemoved = true
		} else {
			e.LeafPorts[leaf] = lp
		}
	}
	if !leafAdded && !leafRemoved {
		return e, false
	}

	// The pod→leaf structure changed: copy-on-write the pod maps.
	e.PodLeaves = make(map[topology.PodID]bitmap.Bitmap, len(old.PodLeaves)+1)
	for p, bm := range old.PodLeaves {
		e.PodLeaves[p] = bm
	}
	li := topo.LeafIndexInPod(leaf)
	if leafAdded {
		if pl, ok := e.PodLeaves[pod]; ok {
			pl = pl.Clone()
			pl.Set(li)
			e.PodLeaves[pod] = pl
		} else {
			pl := bitmap.New(topo.SpineDownWidth())
			pl.Set(li)
			e.PodLeaves[pod] = pl
			pods := old.Pods.Clone()
			pods.Set(int(pod))
			e.Pods = pods
		}
	} else {
		pl := e.PodLeaves[pod].Clone()
		pl.Clear(li)
		if pl.IsEmpty() {
			delete(e.PodLeaves, pod)
			pods := old.Pods.Clone()
			pods.Clear(int(pod))
			e.Pods = pods
		} else {
			e.PodLeaves[pod] = pl
		}
	}
	return e, true
}

// incrementalEncoding computes the encoding after a single receiver
// delta against old (which must be non-nil), re-running Algorithm 1
// only on the layers whose membership changed. Capacity checks go
// through cap exactly as in ComputeEncodingInto; the caller owns
// validation and commit. The result may alias old's maps, bitmaps, and
// rule slices (both are immutable once committed).
func incrementalEncoding(topo *topology.Topology, cfg Config, cap CapacityFunc, old *Encoding, host topology.HostID, joined bool, s *EncodeScratch) (*Encoding, error) {
	e, podsChanged := deltaTree(topo, old, host, joined)
	if len(e.LeafPorts) == 0 {
		// Last receiver left: bare empty tree, same as a full encode
		// of an empty receiver set.
		return e, nil
	}
	if err := encodeLeafLayer(topo, cfg, cap, e, s); err != nil {
		return nil, err
	}
	if podsChanged {
		if err := encodeSpineLayer(cfg, cap, e, s); err != nil {
			return nil, err
		}
	} else {
		e.DSpine = old.DSpine
		e.DSpineDefault = old.DSpineDefault
		e.SpineSRules = old.SpineSRules
		e.SpineRedundancy = old.SpineRedundancy
	}
	e.Redundancy = e.LeafRedundancy + e.SpineRedundancy
	return e, nil
}
