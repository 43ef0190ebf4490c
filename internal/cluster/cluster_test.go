package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"elmo/internal/bitmap"
)

// Assign is AssignInto with a scratch of its own and a deep-copied
// result, so tests (and ExampleAssign) may hold the assignment
// indefinitely and call it from many goroutines at once.
func Assign(members []Member, c Constraints) Assignment {
	var s Scratch
	a := AssignInto(members, c, &s)
	out := Assignment{
		SRules:          slices.Clone(a.SRules),
		DefaultSwitches: slices.Clone(a.DefaultSwitches),
		Redundancy:      a.Redundancy,
	}
	for _, r := range a.PRules {
		out.PRules = append(out.PRules, Rule{Switches: slices.Clone(r.Switches), Bitmap: r.Bitmap.Clone()})
	}
	if a.Default != nil {
		d := a.Default.Clone()
		out.Default = &d
	}
	return out
}

func noCapacity(uint16) bool   { return false }
func fullCapacity(uint16) bool { return true }

func members(width int, ports map[uint16][]int) []Member {
	ms := make([]Member, 0, len(ports))
	for sw, ps := range ports {
		ms = append(ms, Member{Switch: sw, Ports: bitmap.FromPorts(width, ps...)})
	}
	return ms
}

func TestEmptyInput(t *testing.T) {
	a := Assign(nil, Constraints{R: 0, HMax: 10})
	if len(a.PRules) != 0 || len(a.SRules) != 0 || a.Default != nil {
		t.Fatal("empty input produced rules")
	}
	if !a.CoveredExactly() {
		t.Fatal("empty input not covered")
	}
}

// Paper Fig. 3a, leaf layer, R=0: L0 and L6 have identical bitmaps (11)
// and share a rule; L5 (10) gets its own; L7 (01) overflows to an
// s-rule when capacity exists, else the default rule.
func TestPaperExampleLeafLayer(t *testing.T) {
	ms := members(2, map[uint16][]int{
		0: {0, 1}, // L0: Ha, Hb
		5: {0},    // L5: Hk
		6: {0, 1}, // L6: Hm, Hn
		7: {1},    // L7: Hp
	})
	t.Run("R0 with s-rule capacity", func(t *testing.T) {
		a := Assign(ms, Constraints{R: 0, HMax: 2, KMax: 2, HasSRuleCapacity: fullCapacity})
		if len(a.PRules) != 2 {
			t.Fatalf("p-rules = %d, want 2", len(a.PRules))
		}
		if len(a.SRules) != 1 {
			t.Fatalf("s-rules = %d, want 1", len(a.SRules))
		}
		if a.Default != nil {
			t.Fatal("default rule should not be needed")
		}
		if a.Redundancy != 0 {
			t.Fatalf("redundancy = %d, want 0 at R=0", a.Redundancy)
		}
		// The shared rule must be {0,6} with bitmap 11.
		found := false
		for _, r := range a.PRules {
			if len(r.Switches) == 2 && r.Switches[0] == 0 && r.Switches[1] == 6 {
				found = true
				if r.Bitmap.String() != "11" {
					t.Fatalf("shared bitmap = %s", r.Bitmap)
				}
			}
		}
		if !found {
			t.Fatalf("L0+L6 shared rule missing: %+v", a.PRules)
		}
	})
	t.Run("R0 without capacity -> default", func(t *testing.T) {
		a := Assign(ms, Constraints{R: 0, HMax: 2, KMax: 2, HasSRuleCapacity: noCapacity})
		if a.Default == nil {
			t.Fatal("expected default rule")
		}
		if len(a.DefaultSwitches) != 1 {
			t.Fatalf("default switches = %v", a.DefaultSwitches)
		}
		if a.CoveredExactly() {
			t.Fatal("CoveredExactly should be false")
		}
	})
	t.Run("R2 shares everything in two rules", func(t *testing.T) {
		a := Assign(ms, Constraints{R: 2, HMax: 2, KMax: 2, HasSRuleCapacity: noCapacity})
		if len(a.PRules) != 2 || a.Default != nil || len(a.SRules) != 0 {
			t.Fatalf("R2: p=%d s=%d def=%v", len(a.PRules), len(a.SRules), a.Default)
		}
		// Paper: {L0,L6} share 11 and {L5,L7} share 11 with 2 redundant bits.
		if a.Redundancy == 0 {
			t.Fatal("R2 sharing should introduce redundancy for L5/L7")
		}
	})
}

func TestRBoundRespected(t *testing.T) {
	for _, r := range []int{0, 1, 2, 4, 8} {
		a := Assign(randomMembers(64, 40, 12, rand.New(rand.NewSource(7))),
			Constraints{R: r, HMax: 40, KMax: 8, HasSRuleCapacity: noCapacity})
		for _, rule := range a.PRules {
			for _, sw := range rule.Switches {
				// Distance of each member to the rule's OR must be <= R.
				d := memberPorts(t, sw).HammingDistance(rule.Bitmap)
				if d > r {
					t.Fatalf("R=%d violated: switch %d distance %d", r, sw, d)
				}
			}
		}
	}
}

var lastMembers []Member

func memberPorts(t *testing.T, sw uint16) bitmap.Bitmap {
	t.Helper()
	for _, m := range lastMembers {
		if m.Switch == sw {
			return m.Ports
		}
	}
	t.Fatalf("switch %d not found", sw)
	return bitmap.Bitmap{}
}

func randomMembers(width, n, maxPorts int, rng *rand.Rand) []Member {
	ms := make([]Member, n)
	for i := range ms {
		b := bitmap.New(width)
		k := rng.Intn(maxPorts) + 1
		for j := 0; j < k; j++ {
			b.Set(rng.Intn(width))
		}
		ms[i] = Member{Switch: uint16(i), Ports: b}
	}
	lastMembers = ms
	return ms
}

func TestHMaxRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ms := randomMembers(48, 30, 6, rng)
	for _, hmax := range []int{0, 1, 3, 10} {
		a := Assign(ms, Constraints{R: 0, HMax: hmax, KMax: 4, HasSRuleCapacity: fullCapacity})
		if len(a.PRules) > hmax {
			t.Fatalf("HMax=%d: emitted %d p-rules", hmax, len(a.PRules))
		}
		// Everything must be covered somewhere.
		covered := len(a.SRules) + len(a.DefaultSwitches)
		for _, r := range a.PRules {
			covered += len(r.Switches)
		}
		if covered != len(ms) {
			t.Fatalf("HMax=%d: covered %d of %d", hmax, covered, len(ms))
		}
	}
}

func TestKMaxRespected(t *testing.T) {
	// 20 switches with identical bitmaps must be split into rules of
	// at most KMax switches.
	ms := make([]Member, 20)
	for i := range ms {
		ms[i] = Member{Switch: uint16(i), Ports: bitmap.FromPorts(8, 3)}
	}
	a := Assign(ms, Constraints{R: 0, HMax: 100, KMax: 6, HasSRuleCapacity: noCapacity})
	total := 0
	for _, r := range a.PRules {
		if len(r.Switches) > 6 {
			t.Fatalf("rule has %d switches, KMax=6", len(r.Switches))
		}
		total += len(r.Switches)
	}
	if total != 20 || a.Default != nil {
		t.Fatalf("coverage: %d p-rule switches, default=%v", total, a.Default)
	}
}

func TestSRuleCapacityCallback(t *testing.T) {
	ms := members(4, map[uint16][]int{1: {0}, 2: {1}, 3: {2}})
	// No p-rule budget; only switch 2 has capacity.
	cap2 := func(sw uint16) bool { return sw == 2 }
	a := Assign(ms, Constraints{R: 0, HMax: 0, KMax: 2, HasSRuleCapacity: cap2})
	if len(a.PRules) != 0 {
		t.Fatal("HMax=0 should emit no p-rules")
	}
	if !slices.Equal(a.SRules, []uint16{2}) {
		t.Fatalf("SRules = %v", a.SRules)
	}
	if len(a.DefaultSwitches) != 2 {
		t.Fatalf("DefaultSwitches = %v", a.DefaultSwitches)
	}
	// Default = OR of switch 1 and 3 bitmaps.
	if !a.Default.Equal(bitmap.FromPorts(4, 0, 2)) {
		t.Fatalf("Default = %s", a.Default)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ms := randomMembers(48, 25, 5, rng)
	a1 := Assign(ms, Constraints{R: 2, HMax: 8, KMax: 4, HasSRuleCapacity: noCapacity})
	a2 := Assign(ms, Constraints{R: 2, HMax: 8, KMax: 4, HasSRuleCapacity: noCapacity})
	if len(a1.PRules) != len(a2.PRules) || a1.Redundancy != a2.Redundancy {
		t.Fatal("assignment not deterministic")
	}
	for i := range a1.PRules {
		if !a1.PRules[i].Bitmap.Equal(a2.PRules[i].Bitmap) {
			t.Fatal("rule order not deterministic")
		}
	}
}

// Property: every input switch is covered exactly once, across
// p-rules, s-rules, and the default rule; and applied bitmaps are
// supersets of required bitmaps.
func TestQuickCoverageInvariant(t *testing.T) {
	f := func(seed int64, rRaw, hRaw, kRaw uint8, withCap bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		ms := make([]Member, n)
		byID := make(map[uint16]bitmap.Bitmap, n)
		for i := range ms {
			b := bitmap.New(32)
			k := rng.Intn(6) + 1
			for j := 0; j < k; j++ {
				b.Set(rng.Intn(32))
			}
			ms[i] = Member{Switch: uint16(i), Ports: b}
			byID[uint16(i)] = b
		}
		capFn := noCapacity
		if withCap {
			capFn = fullCapacity
		}
		c := Constraints{
			R:                int(rRaw % 8),
			HMax:             int(hRaw % 20),
			KMax:             int(kRaw%6) + 1,
			HasSRuleCapacity: capFn,
		}
		a := Assign(ms, c)
		seen := make(map[uint16]int)
		for _, r := range a.PRules {
			if len(r.Switches) > c.KMax {
				return false
			}
			for _, sw := range r.Switches {
				seen[sw]++
				// Rule bitmap must cover the member's ports.
				if !r.Bitmap.Contains(byID[sw]) {
					return false
				}
				if byID[sw].HammingDistance(r.Bitmap) > c.R {
					return false
				}
			}
		}
		// An s-rule holds its switch's own ports, so only the list's
		// order is left to check.
		if !slices.IsSorted(a.SRules) {
			return false
		}
		for _, sw := range a.SRules {
			seen[sw]++
		}
		for _, sw := range a.DefaultSwitches {
			seen[sw]++
			if !a.Default.Contains(byID[sw]) {
				return false
			}
		}
		if len(a.PRules) > c.HMax {
			return false
		}
		if len(seen) != n {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising R never increases the number of switches that fall
// off p-rules (monotonicity that drives Figures 4/5 left panels).
func TestQuickRMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ms := randomMembers(32, rng.Intn(30)+2, 5, rng)
		prev := -1
		for _, r := range []int{0, 2, 6, 12} {
			a := Assign(ms, Constraints{R: r, HMax: 5, KMax: 4, HasSRuleCapacity: noCapacity})
			inP := 0
			for _, rule := range a.PRules {
				inP += len(rule.Switches)
			}
			if prev >= 0 && inP < prev {
				// The greedy heuristic is not strictly monotone on
				// every instance, but a drop of more than one rule's
				// worth indicates a bug.
				if prev-inP > 4 {
					return false
				}
			}
			prev = inP
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAssignWVESizedGroup(b *testing.B) {
	// A 60-member group spread over ~30 leaves with 48-port bitmaps —
	// the typical per-group clustering workload at paper scale.
	rng := rand.New(rand.NewSource(9))
	ms := randomMembers(48, 30, 3, rng)
	c := Constraints{R: 6, HMax: 30, KMax: 8, HasSRuleCapacity: noCapacity}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Assign(ms, c)
	}
}

func BenchmarkAssignLargeGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ms := randomMembers(48, 500, 8, rng)
	c := Constraints{R: 12, HMax: 30, KMax: 8, HasSRuleCapacity: fullCapacity}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Assign(ms, c)
	}
}

// TestAssignConcurrent pins down the reentrancy contract the parallel
// controller pipeline relies on: many goroutines running Assign over
// the same shared member slice produce identical assignments and never
// trip the race detector (run via `make race`).
func TestAssignConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ms := randomMembers(48, 40, 4, rng)
	c := Constraints{R: 4, HMax: 10, KMax: 4, HasSRuleCapacity: fullCapacity}
	want := Assign(ms, c)

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got := Assign(ms, c)
				if !reflect.DeepEqual(got, want) {
					errs <- "concurrent Assign diverged from serial result"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
