package cluster

import (
	"slices"
	"sort"

	"elmo/internal/bitmap"
)

// This file freezes the original, allocation-heavy implementation of
// Algorithm 1 exactly as it shipped before the scratch-buffer rewrite.
// It exists for two reasons:
//
//   - It is the golden oracle: the equivalence tests run AssignInto and
//     ReferenceAssign against randomized inputs and require
//     byte-identical output (same p-rules, s-rules, default rule, and
//     redundancy).
//   - It is the benchmark baseline: BenchmarkReferenceAssignWVESizedGroup
//     beside BenchmarkAssignIntoWarmScratch keeps the allocation and
//     throughput delta of the rewrite measurable.
//
// Do not optimize or otherwise modify this implementation.

// ReferenceAssign is the frozen pre-optimization Assign. Its results
// are identical to Assign for inputs with unique Switch IDs; its cost
// is O(classes²·picked) bitmap temporaries per rule plus a linear
// member scan per default-rule switch.
func ReferenceAssign(members []Member, c Constraints) Assignment {
	var out Assignment
	if len(members) == 0 {
		return out
	}
	kmax := c.KMax
	if kmax <= 0 || kmax > len(members) {
		kmax = len(members)
	}

	classes := refSplitClasses(refBuildClasses(members), kmax)

	for len(classes) > 0 && len(out.PRules) < c.HMax {
		group, union := refPickGroup(classes, kmax, c.R)
		rule := Rule{Bitmap: union}
		for _, ci := range group {
			cl := classes[ci]
			rule.Switches = append(rule.Switches, cl.switches...)
			out.Redundancy += union.AndNot(cl.ports).PopCount() * len(cl.switches)
		}
		sort.Slice(rule.Switches, func(i, j int) bool { return rule.Switches[i] < rule.Switches[j] })
		out.PRules = append(out.PRules, rule)
		classes = refRemoveClasses(classes, group)
	}

	// Spill: s-rules where capacity remains, default p-rule otherwise.
	for _, cl := range classes {
		for _, sw := range cl.switches {
			if c.HasSRuleCapacity != nil && c.HasSRuleCapacity(sw) {
				out.SRules = append(out.SRules, sw)
				slices.Sort(out.SRules)
				continue
			}
			if out.Default == nil {
				d := cl.ports.Clone()
				out.Default = &d
			} else {
				out.Default.OrInPlace(cl.ports)
			}
			out.DefaultSwitches = append(out.DefaultSwitches, sw)
		}
	}
	// Account default-rule redundancy after the final OR is known.
	if out.Default != nil {
		for _, sw := range out.DefaultSwitches {
			out.Redundancy += out.Default.AndNot(refPortsOf(members, sw)).PopCount()
		}
		sort.Slice(out.DefaultSwitches, func(i, j int) bool {
			return out.DefaultSwitches[i] < out.DefaultSwitches[j]
		})
	}
	return out
}

func refPortsOf(members []Member, sw uint16) bitmap.Bitmap {
	for _, m := range members {
		if m.Switch == sw {
			return m.Ports
		}
	}
	panic("cluster: unknown switch")
}

// refClass groups members sharing an identical bitmap.
type refClass struct {
	ports    bitmap.Bitmap
	switches []uint16
	pop      int
}

func refBuildClasses(members []Member) []*refClass {
	byKey := make(map[string]*refClass, len(members))
	order := make([]*refClass, 0, len(members))
	keyBuf := make([]byte, 0, 64)
	for _, m := range members {
		keyBuf = m.Ports.AppendWire(keyBuf[:0])
		k := string(keyBuf)
		cl, ok := byKey[k]
		if !ok {
			cl = &refClass{ports: m.Ports.Clone(), pop: m.Ports.PopCount()}
			byKey[k] = cl
			order = append(order, cl)
		}
		cl.switches = append(cl.switches, m.Switch)
	}
	for _, cl := range order {
		sort.Slice(cl.switches, func(i, j int) bool { return cl.switches[i] < cl.switches[j] })
	}
	// Deterministic order: by ascending popcount, then lowest switch.
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].pop != order[j].pop {
			return order[i].pop < order[j].pop
		}
		return order[i].switches[0] < order[j].switches[0]
	})
	return order
}

func refSplitClasses(classes []*refClass, kmax int) []*refClass {
	out := make([]*refClass, 0, len(classes))
	for _, cl := range classes {
		for len(cl.switches) > kmax {
			out = append(out, &refClass{ports: cl.ports, pop: cl.pop, switches: cl.switches[:kmax]})
			cl = &refClass{ports: cl.ports, pop: cl.pop, switches: cl.switches[kmax:]}
		}
		out = append(out, cl)
	}
	return out
}

func refPickGroup(classes []*refClass, k, r int) ([]int, bitmap.Bitmap) {
	seed := 0
	for i, cl := range classes[1:] {
		s := classes[seed]
		if len(cl.switches) > len(s.switches) ||
			(len(cl.switches) == len(s.switches) && cl.pop < s.pop) {
			seed = i + 1
		}
	}
	picked := []int{seed}
	budget := k - len(classes[seed].switches)
	union := classes[seed].ports.Clone()
	for budget > 0 {
		best, bestGrowth := -1, -1
		for i, cl := range classes {
			if i == seed || refContains(picked, i) || len(cl.switches) > budget {
				continue
			}
			growth := cl.ports.AndNot(union).PopCount()
			if best != -1 && growth >= bestGrowth {
				continue
			}
			// R check against the prospective union: total redundant
			// transmissions across all members of the rule.
			newUnion := union.Or(cl.ports)
			sum := len(cl.switches) * cl.ports.HammingDistance(newUnion)
			for _, pi := range picked {
				sum += len(classes[pi].switches) * classes[pi].ports.HammingDistance(newUnion)
			}
			if sum > r {
				continue
			}
			best, bestGrowth = i, growth
		}
		if best == -1 {
			break
		}
		picked = append(picked, best)
		union.OrInPlace(classes[best].ports)
		budget -= len(classes[best].switches)
	}
	sort.Ints(picked)
	return picked, union
}

func refContains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func refRemoveClasses(classes []*refClass, idxs []int) []*refClass {
	drop := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		drop[i] = true
	}
	out := classes[:0]
	for i, cl := range classes {
		if !drop[i] {
			out = append(out, cl)
		}
	}
	return out
}
