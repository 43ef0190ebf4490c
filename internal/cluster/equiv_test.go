package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elmo/internal/bitmap"
)

// equalAssignments compares two assignments field by field, treating
// nil and empty slices as equal only when both are empty, and bitmaps
// by content.
func equalAssignments(a, b Assignment) error {
	if a.Redundancy != b.Redundancy {
		return fmt.Errorf("redundancy %d != %d", a.Redundancy, b.Redundancy)
	}
	if len(a.PRules) != len(b.PRules) {
		return fmt.Errorf("p-rule count %d != %d", len(a.PRules), len(b.PRules))
	}
	for i := range a.PRules {
		ra, rb := a.PRules[i], b.PRules[i]
		if len(ra.Switches) != len(rb.Switches) {
			return fmt.Errorf("rule %d switch count %d != %d", i, len(ra.Switches), len(rb.Switches))
		}
		for j := range ra.Switches {
			if ra.Switches[j] != rb.Switches[j] {
				return fmt.Errorf("rule %d switches %v != %v", i, ra.Switches, rb.Switches)
			}
		}
		if !ra.Bitmap.Equal(rb.Bitmap) {
			return fmt.Errorf("rule %d bitmap %s != %s", i, ra.Bitmap, rb.Bitmap)
		}
	}
	if !slices.Equal(a.SRules, b.SRules) {
		return fmt.Errorf("s-rules %v != %v", a.SRules, b.SRules)
	}
	if (a.Default == nil) != (b.Default == nil) {
		return fmt.Errorf("default presence %t != %t", a.Default != nil, b.Default != nil)
	}
	if a.Default != nil && !a.Default.Equal(*b.Default) {
		return fmt.Errorf("default bitmap %s != %s", a.Default, b.Default)
	}
	if len(a.DefaultSwitches) != len(b.DefaultSwitches) {
		return fmt.Errorf("default switch count %d != %d", len(a.DefaultSwitches), len(b.DefaultSwitches))
	}
	for i := range a.DefaultSwitches {
		if a.DefaultSwitches[i] != b.DefaultSwitches[i] {
			return fmt.Errorf("default switches %v != %v", a.DefaultSwitches, b.DefaultSwitches)
		}
	}
	return nil
}

// capEvery returns a capacity callback admitting switches whose ID is
// divisible by mod (mod 0 = nil callback, mod 1 = all switches).
func capEvery(mod int) func(uint16) bool {
	if mod == 0 {
		return nil
	}
	return func(sw uint16) bool { return int(sw)%mod == 0 }
}

// TestGoldenEquivalence is the golden proof that the scratch rewrite
// is byte-identical to the frozen pre-optimization implementation:
// AssignInto (with a warm, reused scratch) and Assign must match
// ReferenceAssign on randomized member sets across widths, sizes, and
// the constraint corners (R=0, KMax=1, HMax=0, nil HasSRuleCapacity,
// partial capacity, duplicate bitmaps forcing class splits).
func TestGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	var s Scratch // deliberately reused across all cases
	widths := []int{1, 2, 8, 16, 48, 64, 65, 130}
	for trial := 0; trial < 400; trial++ {
		width := widths[rng.Intn(len(widths))]
		n := rng.Intn(40) + 1
		// Duplicate bitmaps are likely at small widths, exercising
		// class collapse and KMax splitting.
		ms := make([]Member, n)
		for i := range ms {
			b := bitmap.New(width)
			k := rng.Intn(min(width, 8)) + 1
			for j := 0; j < k; j++ {
				b.Set(rng.Intn(width))
			}
			ms[i] = Member{Switch: uint16(i), Ports: b}
		}
		c := Constraints{
			R:                rng.Intn(10),
			HMax:             rng.Intn(12),
			KMax:             rng.Intn(6), // 0 = unlimited
			HasSRuleCapacity: capEvery(rng.Intn(4)),
		}
		want := ReferenceAssign(ms, c)
		got := AssignInto(ms, c, &s)
		if err := equalAssignments(got, want); err != nil {
			t.Fatalf("trial %d (width=%d n=%d %+v): AssignInto diverged: %v",
				trial, width, n, c, err)
		}
		owned := Assign(ms, c)
		if err := equalAssignments(owned, want); err != nil {
			t.Fatalf("trial %d: Assign diverged: %v", trial, err)
		}
	}
}

// TestGoldenEquivalenceCorners pins the explicit constraint corners the
// issue calls out: R=0, KMax=1, HMax=0, nil HasSRuleCapacity.
func TestGoldenEquivalenceCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	var s Scratch
	corners := []Constraints{
		{R: 0, HMax: 5, KMax: 2},
		{R: 0, HMax: 5, KMax: 2, HasSRuleCapacity: capEvery(1)},
		{R: 4, HMax: 8, KMax: 1}, // KMax=1: no sharing possible
		{R: 4, HMax: 0, KMax: 4}, // HMax=0: everything spills
		{R: 4, HMax: 0, KMax: 4, HasSRuleCapacity: capEvery(2)},
		{R: 100, HMax: 1, KMax: 0}, // one giant rule, unlimited K
	}
	for ci, c := range corners {
		for trial := 0; trial < 50; trial++ {
			ms := make([]Member, rng.Intn(25)+1)
			for i := range ms {
				b := bitmap.New(32)
				for j := 0; j < rng.Intn(5)+1; j++ {
					b.Set(rng.Intn(32))
				}
				ms[i] = Member{Switch: uint16(i), Ports: b}
			}
			want := ReferenceAssign(ms, c)
			got := AssignInto(ms, c, &s)
			if err := equalAssignments(got, want); err != nil {
				t.Fatalf("corner %d trial %d: %v", ci, trial, err)
			}
		}
	}
}

// FuzzAssignEquivalence drives the same equivalence property through
// the fuzzer: for any seed-derived member set and constraints, the
// scratch implementation must match the frozen reference.
func FuzzAssignEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(2), uint8(3), uint8(5), uint8(2), uint8(1))
	f.Add(int64(99), uint8(7), uint8(0), uint8(0), uint8(2)) // HMax=0
	f.Add(int64(7), uint8(0), uint8(9), uint8(1), uint8(3))  // R=0, KMax=1
	f.Fuzz(func(t *testing.T, seed int64, rRaw, hRaw, kRaw, capRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		width := rng.Intn(100) + 1
		n := rng.Intn(40) + 1
		ms := make([]Member, n)
		for i := range ms {
			b := bitmap.New(width)
			for j := 0; j < rng.Intn(min(width, 9))+1; j++ {
				b.Set(rng.Intn(width))
			}
			ms[i] = Member{Switch: uint16(i), Ports: b}
		}
		c := Constraints{
			R:                int(rRaw % 16),
			HMax:             int(hRaw % 16),
			KMax:             int(kRaw % 8),
			HasSRuleCapacity: capEvery(int(capRaw % 4)),
		}
		var s Scratch
		got := AssignInto(ms, c, &s)
		want := ReferenceAssign(ms, c)
		if err := equalAssignments(got, want); err != nil {
			t.Fatalf("seed=%d %+v: %v", seed, c, err)
		}
	})
}

// TestDefaultRuleRedundancyAccounting is the regression test for the
// default-rule accounting path: the frozen implementation resolved each
// default switch's ports with a linear member scan (refPortsOf, which
// panicked on a miss); the rewrite reads them off the class records.
// With no p-rule budget and capacity on a strict subset of switches,
// every uncovered switch lands on the default rule and its redundancy
// must be exactly |default OR| − |own ports| per switch.
func TestDefaultRuleRedundancyAccounting(t *testing.T) {
	ms := []Member{
		{Switch: 3, Ports: bitmap.FromPorts(8, 0)},
		{Switch: 9, Ports: bitmap.FromPorts(8, 1, 2)},
		{Switch: 4, Ports: bitmap.FromPorts(8, 5)},
		{Switch: 12, Ports: bitmap.FromPorts(8, 0)}, // same class as 3
		{Switch: 6, Ports: bitmap.FromPorts(8, 7)},
	}
	// Only switch 6 has s-rule capacity; no p-rules allowed.
	c := Constraints{HMax: 0, KMax: 2, HasSRuleCapacity: func(sw uint16) bool { return sw == 6 }}
	var s Scratch
	a := AssignInto(ms, c, &s)
	if len(a.PRules) != 0 || len(a.SRules) != 1 {
		t.Fatalf("p=%d s=%d, want 0/1", len(a.PRules), len(a.SRules))
	}
	wantDefault := bitmap.FromPorts(8, 0, 1, 2, 5)
	if a.Default == nil || !a.Default.Equal(wantDefault) {
		t.Fatalf("default = %v, want %s", a.Default, wantDefault)
	}
	if got, want := a.DefaultSwitches, []uint16{3, 4, 9, 12}; len(got) != len(want) {
		t.Fatalf("default switches = %v", got)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("default switches = %v, want %v", got, want)
			}
		}
	}
	// |default| = 4. Redundancy: sw3 4-1, sw12 4-1, sw9 4-2, sw4 4-1 = 11.
	if a.Redundancy != 11 {
		t.Fatalf("redundancy = %d, want 11", a.Redundancy)
	}
	if err := equalAssignments(a, ReferenceAssign(ms, c)); err != nil {
		t.Fatalf("reference divergence: %v", err)
	}
}

// TestAssignIntoWarmScratchZeroAlloc pins the hot path at zero heap
// allocations: a warm scratch re-running a representative pod-sized
// leaf layer (30 leaves, 48-port bitmaps, the WVE-sized workload of the
// paper's evaluation) must not allocate at all.
func TestAssignIntoWarmScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ms := randomMembers(48, 30, 3, rng)
	c := Constraints{R: 6, HMax: 30, KMax: 8, HasSRuleCapacity: noCapacity}
	var s Scratch
	AssignInto(ms, c, &s) // warm the scratch
	allocs := testing.AllocsPerRun(200, func() {
		AssignInto(ms, c, &s)
	})
	if allocs != 0 {
		t.Fatalf("warm AssignInto allocated %.1f per op, want 0", allocs)
	}
}

// TestAssignIntoWarmScratchZeroAllocWithSRules covers the spill path
// too: s-rule map writes into a warm map must stay allocation-free.
func TestAssignIntoWarmScratchZeroAllocWithSRules(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ms := randomMembers(48, 30, 3, rng)
	c := Constraints{R: 0, HMax: 4, KMax: 2, HasSRuleCapacity: fullCapacity}
	var s Scratch
	AssignInto(ms, c, &s)
	allocs := testing.AllocsPerRun(200, func() {
		AssignInto(ms, c, &s)
	})
	if allocs != 0 {
		t.Fatalf("warm AssignInto (s-rule spill) allocated %.1f per op, want 0", allocs)
	}
}

func BenchmarkAssignIntoWarmScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ms := randomMembers(48, 30, 3, rng)
	c := Constraints{R: 6, HMax: 30, KMax: 8, HasSRuleCapacity: noCapacity}
	var s Scratch
	AssignInto(ms, c, &s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AssignInto(ms, c, &s)
	}
}

func BenchmarkReferenceAssignWVESizedGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ms := randomMembers(48, 30, 3, rng)
	c := Constraints{R: 6, HMax: 30, KMax: 8, HasSRuleCapacity: noCapacity}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReferenceAssign(ms, c)
	}
}

func BenchmarkAssignIntoLargeGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ms := randomMembers(48, 500, 8, rng)
	c := Constraints{R: 12, HMax: 30, KMax: 8, HasSRuleCapacity: fullCapacity}
	var s Scratch
	AssignInto(ms, c, &s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AssignInto(ms, c, &s)
	}
}
