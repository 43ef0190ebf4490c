package controller

import (
	"slices"

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
//     Otherwise the pod half of the tree is what it was, and the spine
//     section encoded from it is reused verbatim.
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
// members gain (joined) or lose host, given its ascending members and
// encoding old before the op. The tree is rebuilt in s from the post-op
// receivers; old is never modified, and only its spine section is
// reused, when the receiver leaves stay the same. Capacity checks go
// through cap exactly as in ComputeEncodingInto; the caller owns
// validation and commit.
func incrementalEncoding(topo *topology.Topology, cfg Config, cap CapacityFunc, old *Encoding, members []Member, host topology.HostID, joined bool, s *EncodeScratch) (*Encoding, error) {
	s.receivers = appendHosts(s.receivers[:0], members, Role.CanReceive)
	if i, _ := slices.BinarySearch(s.receivers, host); joined {
		s.receivers = slices.Insert(s.receivers, i, host)
	} else {
		s.receivers = slices.Delete(s.receivers, i, i+1)
	}
	s.tree.build(topo, s.receivers)
	ports, on := s.tree.Leaf(topo.HostLeaf(host))
	leavesChanged := !on || (joined && ports.PopCount() == 1)
	e := &Encoding{}
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
	return e, nil
}
