// Package cluster implements the controller's p-/s-rule generation for
// one downstream layer of one multicast group (paper §3.2, Algorithm 1).
//
// The input is the set of (logical) switches on the group's tree at
// that layer, each with the bitmap of output ports it must forward on.
// The algorithm packs switches into at most HMax shared p-rules — a
// shared rule's bitmap is the bitwise OR of its members' bitmaps, and
// sharing is allowed only while the sum of the members' Hamming
// distances to the OR stays within R (bounding spurious transmissions,
// D3) — then spills the
// remainder into per-switch s-rules where group-table capacity remains
// (D5), and finally ORs anything left into a single default p-rule (D4).
//
// Choosing which switches share a rule is the MIN-K-UNION problem
// (NP-hard); ApproxMinKUnion is the standard greedy approximation:
// start from the smallest set and repeatedly add the set that grows
// the union least.
//
// This is the controller's encode hot path: it runs once per layer per
// group install and once per layer per churn re-encode, so at paper
// scale (a million groups, thousands of events per second) its constant
// factors decide controller throughput. AssignInto is the
// allocation-free core: all working state lives in a caller-provided
// Scratch, the greedy loop maintains its union and redundancy sums
// incrementally (O(1) per candidate instead of O(picked) bitmap
// temporaries), and the returned Assignment aliases scratch memory;
// callers that keep a result copy what they keep.
package cluster

import (
	"cmp"
	"slices"

	"elmo/internal/bitmap"
)

// Member is one switch at a layer with its required output ports.
// Switch IDs must be unique within one AssignInto call (a switch
// appears at most once on a group's tree at a layer).
type Member struct {
	// Switch is the logical switch identifier (pod ID for the spine
	// layer, global leaf ID for the leaf layer).
	Switch uint16
	// Ports is the downstream output-port bitmap of the switch in the
	// group's multicast tree. Never empty for a tree member.
	Ports bitmap.Bitmap
}

// Constraints bounds the assignment for one layer.
type Constraints struct {
	// R is the redundancy limit: switches may share a p-rule only if
	// the SUM of Hamming distances from each member's bitmap to the
	// rule's OR bitmap is at most R ("the sum of Hamming Distances of
	// each input bitmap to the output bitmap", §3.2) — so R bounds the
	// spurious transmissions one shared rule can cause. R=0 shares
	// only identical bitmaps.
	R int
	// HMax is the maximum number of non-default p-rules for the layer.
	HMax int
	// KMax is the maximum number of switches sharing one p-rule. It
	// bounds the identifier list so the rule's wire size is known a
	// priori. Zero means no limit beyond wire framing.
	KMax int
	// HasSRuleCapacity reports whether the given switch still has
	// group-table space (Fmax check). A nil func means no capacity
	// anywhere, pushing the overflow to the default p-rule.
	HasSRuleCapacity func(sw uint16) bool
}

// Rule is one shared p-rule produced by the assignment.
type Rule struct {
	Switches []uint16
	Bitmap   bitmap.Bitmap
}

// Assignment is the output of Algorithm 1 for one layer.
type Assignment struct {
	// PRules are the non-default p-rules, each covering one or more
	// switches.
	PRules []Rule
	// SRules lists, ascending, the switches that received a group-table
	// entry. An entry holds the switch's own port bitmap (its Member's
	// Ports), so the list names the switches and nothing else.
	SRules []uint16
	// Default is the OR of the bitmaps of all switches that neither
	// fit a p-rule nor had s-rule capacity; nil if every switch was
	// covered exactly.
	Default *bitmap.Bitmap
	// DefaultSwitches lists the switches relying on the default rule.
	DefaultSwitches []uint16
	// Redundancy is the total number of spurious port transmissions
	// introduced by sharing and the default rule: for every switch,
	// the set bits its applied bitmap has beyond its own requirement.
	Redundancy int
}

// CoveredExactly reports whether no default rule was needed; the
// evaluation's "groups covered with p-rules" counts groups whose
// layers are all covered by p-rules and s-rules only.
func (a *Assignment) CoveredExactly() bool { return a.Default == nil }

// classRec groups members sharing an identical bitmap. ports aliases
// the first member's (read-only) bitmap; switches is a sub-slice of the
// scratch switch buffer.
type classRec struct {
	ports    bitmap.Bitmap
	switches []uint16
	pop      int
}

// Scratch holds all working and output state of one AssignInto run, so
// a warm scratch executes a full layer assignment with zero heap
// allocations. A Scratch is single-goroutine state: give each encoder
// worker its own. The zero value is ready to use.
type Scratch struct {
	// class building
	idx     []int32    // member indices, sorted by bitmap content
	swBuf   []uint16   // switches in grouped order; classes sub-slice it
	classes []classRec // grouped classes before KMax splitting
	work    []classRec // post-split working set, compacted as rules emit

	// greedy state
	union      bitmap.Bitmap // running union of the rule being built
	picked     []int         // indices into work picked for the rule
	pickedMark []bool        // membership bitset over work

	// outputs (aliased by the returned Assignment)
	prules      []Rule
	ruleSw      []uint16        // backing array for all rules' Switches
	ruleBMs     []bitmap.Bitmap // reusable storage for rule bitmaps
	srules      []uint16
	defaultBM   bitmap.Bitmap
	defSwitches []uint16
	defPops     []int
}

// AssignInto runs Algorithm 1 over the members of one layer. Members
// must have bitmaps of equal width and unique Switch IDs; the slice may
// be in any order, and is not modified. The result is deterministic.
//
// Every temporary lives in s, and the returned Assignment's slices and
// bitmaps alias scratch memory. The result is valid only until the next
// AssignInto call with the same scratch; callers that persist it must
// copy it. It never mutates the member bitmaps, so workers may share
// member slices, but the scratch itself is not safe for concurrent use,
// and the HasSRuleCapacity callback must be safe to call from every
// worker that runs (the controller passes closures over atomic
// occupancy counters).
func AssignInto(members []Member, c Constraints, s *Scratch) Assignment {
	var out Assignment
	if len(members) == 0 {
		return out
	}
	kmax := c.KMax
	if kmax <= 0 || kmax > len(members) {
		kmax = len(members)
	}

	// Collapse identical bitmaps into classes: identical members can
	// always share (distance 0), and classes shrink the MIN-K-UNION
	// candidate set dramatically for clustered placements. Classes
	// larger than KMax are split so every emitted rule honors KMax.
	work := s.buildClasses(members, kmax)

	// Rule emission. The switch backing buffer is pre-sized to the
	// worst case (every member lands in a p-rule) so emitted sub-slices
	// are never invalidated by growth.
	s.prules = s.prules[:0]
	if cap(s.ruleSw) < len(members) {
		s.ruleSw = make([]uint16, 0, len(members))
	}
	s.ruleSw = s.ruleSw[:0]

	for len(work) > 0 && len(s.prules) < c.HMax {
		popUnion := s.pickGroup(work, kmax, c.R)
		swStart := len(s.ruleSw)
		for _, ci := range s.picked {
			cl := &work[ci]
			// cl.ports ⊆ union, so the redundancy the rule inflicts on
			// this class is (|union| − |ports|) spurious ports per switch.
			out.Redundancy += (popUnion - cl.pop) * len(cl.switches)
			s.ruleSw = append(s.ruleSw, cl.switches...)
		}
		sws := s.ruleSw[swStart:len(s.ruleSw):len(s.ruleSw)]
		slices.Sort(sws)
		s.prules = append(s.prules, Rule{Switches: sws, Bitmap: s.ruleBitmap(len(s.prules))})
		work = s.removePicked(work)
	}
	if len(s.prules) > 0 {
		out.PRules = s.prules
	}

	// Spill: s-rules where capacity remains, default p-rule otherwise.
	s.srules = s.srules[:0]
	s.defSwitches = s.defSwitches[:0]
	s.defPops = s.defPops[:0]
	haveDefault := false
	for i := range work {
		cl := &work[i]
		for _, sw := range cl.switches {
			if c.HasSRuleCapacity != nil && c.HasSRuleCapacity(sw) {
				s.srules = append(s.srules, sw)
				continue
			}
			if !haveDefault {
				s.defaultBM.CopyFrom(cl.ports)
				haveDefault = true
			} else {
				s.defaultBM.OrInPlace(cl.ports)
			}
			s.defSwitches = append(s.defSwitches, sw)
			s.defPops = append(s.defPops, cl.pop)
		}
	}
	if len(s.srules) > 0 {
		slices.Sort(s.srules)
		out.SRules = s.srules
	}
	// Account default-rule redundancy after the final OR is known: each
	// default switch's ports ⊆ default, so its spurious ports are
	// |default| − |ports| — no per-switch member scan needed.
	if haveDefault {
		dp := s.defaultBM.PopCount()
		for _, p := range s.defPops {
			out.Redundancy += dp - p
		}
		slices.Sort(s.defSwitches)
		out.Default = &s.defaultBM
		out.DefaultSwitches = s.defSwitches
	}
	return out
}

// buildClasses groups members with identical bitmaps, orders classes
// deterministically (ascending popcount, then lowest switch ID), and
// splits classes larger than kmax. The returned slice and everything it
// references live in the scratch.
func (s *Scratch) buildClasses(members []Member, kmax int) []classRec {
	n := len(members)
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	}
	s.idx = s.idx[:n]
	for i := range s.idx {
		s.idx[i] = int32(i)
	}
	// Sorting by bitmap content makes identical bitmaps adjacent; the
	// switch-ID tie-break leaves each run's switches already ascending.
	slices.SortFunc(s.idx, func(a, b int32) int {
		if c := compareBits(members[a].Ports, members[b].Ports); c != 0 {
			return c
		}
		return cmp.Compare(members[a].Switch, members[b].Switch)
	})

	if cap(s.swBuf) < n {
		s.swBuf = make([]uint16, 0, n)
	}
	s.swBuf = s.swBuf[:0]
	for _, mi := range s.idx {
		s.swBuf = append(s.swBuf, members[mi].Switch)
	}

	s.classes = s.classes[:0]
	for start := 0; start < n; {
		end := start + 1
		for end < n && members[s.idx[start]].Ports.Equal(members[s.idx[end]].Ports) {
			end++
		}
		p := members[s.idx[start]].Ports
		s.classes = append(s.classes, classRec{
			ports:    p,
			pop:      p.PopCount(),
			switches: s.swBuf[start:end:end],
		})
		start = end
	}
	// Deterministic order: ascending popcount, then lowest switch ID.
	// Classes partition the (unique) switches, so switches[0] breaks
	// every tie; the bit-content comparison only defends determinism if
	// a caller ever violates the uniqueness contract.
	slices.SortFunc(s.classes, func(a, b classRec) int {
		if a.pop != b.pop {
			return cmp.Compare(a.pop, b.pop)
		}
		if a.switches[0] != b.switches[0] {
			return cmp.Compare(a.switches[0], b.switches[0])
		}
		return compareBits(a.ports, b.ports)
	})

	// Split oversized classes into KMax-sized chunks, preserving order.
	s.work = s.work[:0]
	for _, cl := range s.classes {
		for len(cl.switches) > kmax {
			s.work = append(s.work, classRec{ports: cl.ports, pop: cl.pop, switches: cl.switches[:kmax]})
			cl.switches = cl.switches[kmax:]
		}
		s.work = append(s.work, cl)
	}
	if len(s.pickedMark) < len(s.work) {
		s.pickedMark = make([]bool, len(s.work))
	}
	return s.work
}

// compareBits orders equal-width bitmaps by content (word-lexicographic).
func compareBits(a, b bitmap.Bitmap) int {
	aw, bw := a.Words(), b.Words()
	for i := range aw {
		if aw[i] != bw[i] {
			return cmp.Compare(aw[i], bw[i])
		}
	}
	return 0
}

// pickGroup selects the next shared p-rule: the greedy MIN-K-UNION
// approximation, constrained to keep the rule's total redundancy — the
// sum over members of their Hamming distance to the (growing) union,
// weighted by class multiplicity — at most r. The seed is the class
// covering the most switches (ties: fewest ports), so a rule covers as
// many tree switches as possible before the HMax budget runs out; the
// growth step then adds, while the K budget lasts, the class with the
// smallest union growth that keeps the sum within r.
//
// Every picked class's ports are a subset of the union, so each
// member's Hamming distance to a prospective union is |union∪cand| −
// |member|. That collapses the R check to arithmetic over three
// incrementally-maintained sums — no temporary bitmaps and no O(picked)
// rescan per candidate. The picked indices (ascending) land in
// s.picked, the union in s.union; the return value is the union's
// popcount.
func (s *Scratch) pickGroup(work []classRec, k, r int) (popUnion int) {
	seed := 0
	for i := 1; i < len(work); i++ {
		cl, sd := &work[i], &work[seed]
		if len(cl.switches) > len(sd.switches) ||
			(len(cl.switches) == len(sd.switches) && cl.pop < sd.pop) {
			seed = i
		}
	}
	s.picked = append(s.picked[:0], seed)
	s.pickedMark[seed] = true
	budget := k - len(work[seed].switches)
	s.union.CopyFrom(work[seed].ports)
	popUnion = work[seed].pop
	pickedSwitches := len(work[seed].switches)     // Σ class sizes picked
	weightedPop := work[seed].pop * pickedSwitches // Σ size·|ports| picked
	for budget > 0 {
		best, bestGrowth := -1, -1
		for i := range work {
			cl := &work[i]
			if s.pickedMark[i] || len(cl.switches) > budget {
				continue
			}
			growth := cl.ports.AndNotCount(s.union)
			if best != -1 && growth >= bestGrowth {
				continue
			}
			// R check against the prospective union: total redundant
			// transmissions across all members of the rule.
			popNew := popUnion + growth
			sum := popNew*(pickedSwitches+len(cl.switches)) -
				(weightedPop + len(cl.switches)*cl.pop)
			if sum > r {
				continue
			}
			best, bestGrowth = i, growth
		}
		if best == -1 {
			break
		}
		cl := &work[best]
		s.picked = append(s.picked, best)
		s.pickedMark[best] = true
		s.union.OrInPlace(cl.ports)
		popUnion += bestGrowth
		budget -= len(cl.switches)
		pickedSwitches += len(cl.switches)
		weightedPop += len(cl.switches) * cl.pop
	}
	slices.Sort(s.picked)
	return popUnion
}

// ruleBitmap hands out reusable storage for emitted rule bitmaps,
// loaded with the current union.
func (s *Scratch) ruleBitmap(i int) bitmap.Bitmap {
	if i == len(s.ruleBMs) {
		s.ruleBMs = append(s.ruleBMs, bitmap.Bitmap{})
	}
	s.ruleBMs[i].CopyFrom(s.union)
	return s.ruleBMs[i]
}

// removePicked compacts work in place, dropping the classes picked for
// the just-emitted rule and clearing their marks.
func (s *Scratch) removePicked(work []classRec) []classRec {
	out := work[:0]
	for i := range work {
		if !s.pickedMark[i] {
			out = append(out, work[i])
		}
	}
	for _, i := range s.picked {
		s.pickedMark[i] = false
	}
	return out
}
