package controller

import (
	"sync"
	"sync/atomic"

	"elmo/internal/topology"
)

// Occupancy tracks s-rule group-table occupancy per physical switch
// with atomically-readable counters, so a bulk install's encode workers
// can consult capacity without locks while admission transactions, one
// at a time, mutate the counts.
//
// Batch workers speculate: they encode a new group against a
// point-in-time read of the counters, recording every capacity answer
// they consumed (capRecorder); admission (admit.go) re-checks the
// recorded answers against the live counters and re-encodes on any
// mismatch. The committed result is therefore byte-identical to a fully
// serial run regardless of worker count.
type Occupancy struct {
	topo     *topology.Topology
	capacity int

	// admit serializes admission transactions (admit.go): every create,
	// membership change, removal and batch element runs whole under it,
	// and it is always taken before Controller.mu. A batch's speculative
	// encoding runs outside it.
	admit sync.Mutex

	leaf  []int64
	spine []int64
}

// NewOccupancy creates zeroed occupancy counters for a topology with
// the given per-switch group-table capacity (Fmax).
func NewOccupancy(topo *topology.Topology, capacity int) *Occupancy {
	return &Occupancy{
		topo:     topo,
		capacity: capacity,
		leaf:     make([]int64, topo.NumLeaves()),
		spine:    make([]int64, topo.NumSpines()),
	}
}

// Capacity returns the per-switch table capacity (Fmax).
func (o *Occupancy) Capacity() int { return o.capacity }

// LeafCount returns the live occupancy of a leaf switch.
func (o *Occupancy) LeafCount(l topology.LeafID) int {
	return int(atomic.LoadInt64(&o.leaf[l]))
}

// SpineCount returns the live occupancy of a physical spine switch.
func (o *Occupancy) SpineCount(s topology.SpineID) int {
	return int(atomic.LoadInt64(&o.spine[s]))
}

// leafFree reports whether leaf l has room for one more entry.
func (o *Occupancy) leafFree(l topology.LeafID) bool {
	return int(atomic.LoadInt64(&o.leaf[l])) < o.capacity
}

// SRuleSpines returns, as the ID range [first, end), the physical
// spines that hold pod p's logical-spine s-rule: every spine of the pod,
// since the rule is replicated to each plane (DESIGN.md, limitation 1).
// Occupancy, update charging, state restore and the fabric install walk
// all ask here.
func SRuleSpines(topo *topology.Topology, p topology.PodID) (first, end topology.SpineID) {
	return topo.PodSpines(p)
}

// podFree reports whether every spine holding pod p's s-rule has room.
func (o *Occupancy) podFree(p topology.PodID) bool {
	first, end := SRuleSpines(o.topo, p)
	for s := first; s < end; s++ {
		if int(atomic.LoadInt64(&o.spine[s])) >= o.capacity {
			return false
		}
	}
	return true
}

// CapacityFunc returns a capacity view over the live counters, suitable
// for serial encoding at the commit point.
func (o *Occupancy) CapacityFunc() CapacityFunc {
	return CapacityFunc{Leaf: o.leafFree, Pod: o.podFree}
}

// Commit charges an encoding's s-rules to the counters.
func (o *Occupancy) Commit(e *Encoding) { o.add(e, 1) }

// Release returns an encoding's s-rules to the counters.
func (o *Occupancy) Release(e *Encoding) { o.add(e, -1) }

// add adds delta to the counter of every switch holding one of e's
// s-rules.
func (o *Occupancy) add(e *Encoding, delta int64) {
	if e == nil {
		return
	}
	for _, l := range e.LeafSRules {
		atomic.AddInt64(&o.leaf[l], delta)
	}
	for _, p := range e.SpineSRules {
		first, end := SRuleSpines(o.topo, p)
		for s := first; s < end; s++ {
			atomic.AddInt64(&o.spine[s], delta)
		}
	}
}

// capRecorder wraps an Occupancy for one speculative encoding of a new
// group (a batch element). It memoizes every capacity answer handed to
// the encoder (so one run sees a consistent view, exactly as a serial
// run over unchanging counters would) and can later validate those
// answers against the live counters. It also carries what the run
// produced (enc, err), so one pointer hands a speculation to the
// admission transaction (admit.go).
type capRecorder struct {
	occ     *Occupancy
	leafAns map[topology.LeafID]bool
	podAns  map[topology.PodID]bool

	enc *Encoding
	err error
}

// newCapRecorder builds a recorder with no answers yet.
func newCapRecorder(occ *Occupancy) *capRecorder {
	return &capRecorder{
		occ:     occ,
		leafAns: make(map[topology.LeafID]bool),
		podAns:  make(map[topology.PodID]bool),
	}
}

// capacity returns the recording capacity view for the encoder run.
// Not safe for concurrent use — one recorder serves one encoding run on
// one goroutine.
func (r *capRecorder) capacity() CapacityFunc {
	return CapacityFunc{
		Leaf: func(l topology.LeafID) bool {
			if ans, ok := r.leafAns[l]; ok {
				return ans
			}
			ans := r.occ.leafFree(l)
			r.leafAns[l] = ans
			return ans
		},
		Pod: func(p topology.PodID) bool {
			if ans, ok := r.podAns[p]; ok {
				return ans
			}
			ans := r.occ.podFree(p)
			r.podAns[p] = ans
			return ans
		},
	}
}

// valid re-evaluates every recorded answer against the live counters.
// If every answer still holds, the speculative encoding is exactly what
// a serial run at the commit point would produce.
func (r *capRecorder) valid() bool {
	for l, ans := range r.leafAns {
		if r.occ.leafFree(l) != ans {
			return false
		}
	}
	for p, ans := range r.podAns {
		if r.occ.podFree(p) != ans {
			return false
		}
	}
	return true
}
