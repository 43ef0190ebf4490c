package controller

import (
	"elmo/internal/topology"
)

// This file implements the incremental churn re-encode. A Join or Leave
// that changes the receiver set changes exactly one receiver, so the
// controller rebuilds the tree from the post-op receiver list and
// re-runs Algorithm 1 only for layers whose membership actually changed:
//
//   - The leaf layer always re-encodes — the changed host's port
//     bitmap changed by construction.
//   - The spine layer re-encodes only when the set of receiver leaves
//     changed (a leaf gained its first receiver or lost its last one).
//     Otherwise the pod half of the tree (Pods, PodLeaves) is what it
//     was, and it is reused verbatim together with the spine section
//     encoded from it.
//
// Encodings are immutable once committed, so sharing the reused half
// with the old encoding is safe. Occupancy stays exact because the
// admission transaction releases the old encoding and commits the new
// one — a shared SpineSRules list nets to zero.
//
// Under s-rule capacity contention the reused spine section can differ
// from what a full recompute at the same instant would produce: a pod
// that spilled to the default rule when the old encoding was computed
// might find table space freed since then, and a full recompute would
// upgrade it to an s-rule. The reuse keeps the old placement instead.
// That is capacity-safe (the held rules are re-committed, never grown)
// and the redundancy accounting matches the encoding actually
// installed.

// incrementalEncoding computes the encoding of a group whose receiving
// members gain (joined) or lose host, given its members and encoding old
// before the op. The tree is rebuilt from the post-op receivers,
// collected in s; old is never modified, and only its pod half of the
// tree and its spine section are reused, when the receiver leaves stay
// the same. Capacity checks go through cap exactly as in
// ComputeEncodingInto; the caller owns validation and commit.
func incrementalEncoding(topo *topology.Topology, cfg Config, cap CapacityFunc, old *Encoding, members []Member, host topology.HostID, joined bool, s *EncodeScratch) (*Encoding, error) {
	ports, had := old.LeafPorts[topo.HostLeaf(host)]
	leavesChanged := !had || (!joined && ports.PopCount() == 1)

	s.receivers = s.receivers[:0]
	for _, m := range members {
		if m.Host != host && m.Role.CanReceive() {
			s.receivers = append(s.receivers, m.Host)
		}
	}
	if joined {
		s.receivers = append(s.receivers, host)
	}
	var same *Encoding
	if !leavesChanged {
		same = old
	}
	e := buildTree(topo, s.receivers, same, s)
	if len(s.receivers) == 0 {
		// Last receiver left: bare empty tree, same as a full encode
		// of an empty receiver set.
		return e, nil
	}
	if err := encodeLeafLayer(topo, cfg, cap, e, s); err != nil {
		return nil, err
	}
	if leavesChanged {
		if err := encodeSpineLayer(topo, cfg, cap, e, s); err != nil {
			return nil, err
		}
	} else {
		e.DSpineSection = old.DSpineSection
		e.DSpineDefault = old.DSpineDefault
		e.SpineSRules = old.SpineSRules
		e.SpineRedundancy = old.SpineRedundancy
	}
	e.Redundancy = e.LeafRedundancy + e.SpineRedundancy
	return e, nil
}
