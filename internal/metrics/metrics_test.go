package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not zero")
	}
	for _, x := range []float64{2, 4, 6} {
		s.Add(x)
	}
	if s.Mean() != 4 || s.Max() != 6 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummaryNegatives(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(5)
	if s.Max() != 5 || s.Mean() != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestPercentiles(t *testing.T) {
	var p Samples
	if p.Percentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
	for i := 1; i <= 100; i++ {
		p.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50, 95: 95, 99: 99, 100: 100}
	for q, want := range cases {
		if got := p.Percentile(q); got != want {
			t.Errorf("P%v = %v, want %v", q, got, want)
		}
	}
	if p.Mean() != 50.5 {
		t.Fatalf("mean = %v", p.Mean())
	}
	if p.Max() != 100 {
		t.Fatalf("max = %v", p.Max())
	}
}

// TestPercentileNaNAndEmpty is the regression guard for the NaN
// poisoning bug: NaN samples sort first under sort.Float64s, shifting
// every low percentile to NaN. Add must drop them, and every query on
// an empty (or all-NaN) sample set must return 0, never NaN.
func TestPercentileNaNAndEmpty(t *testing.T) {
	var p Samples
	for _, q := range []float64{0, 50, 100} {
		if got := p.Percentile(q); got != 0 {
			t.Fatalf("empty P%v = %v, want 0", q, got)
		}
	}
	if p.Mean() != 0 || p.Max() != 0 {
		t.Fatalf("empty mean/max = %v/%v", p.Mean(), p.Max())
	}

	p.Add(math.NaN())
	for _, q := range []float64{0, 50, 100} {
		if got := p.Percentile(q); got != 0 {
			t.Fatalf("all-NaN P%v = %v, want 0", q, got)
		}
	}

	// NaNs interleaved with real samples must not shift any percentile.
	for _, x := range []float64{3, math.NaN(), 1, math.NaN(), 2} {
		p.Add(x)
	}
	for q, want := range map[float64]float64{0: 1, 50: 2, 100: 3} {
		got := p.Percentile(q)
		if math.IsNaN(got) || got != want {
			t.Errorf("P%v = %v, want %v", q, got, want)
		}
	}
	if math.IsNaN(p.Mean()) || p.Mean() != 2 {
		t.Errorf("mean = %v, want 2", p.Mean())
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	var p Samples
	p.Add(3)
	_ = p.Percentile(50)
	p.Add(1) // must re-sort
	if got := p.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	f := func(seed int64, qRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var p Samples
		min, max := math.Inf(1), math.Inf(-1)
		n := rng.Intn(50) + 1
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 100
			p.Add(x)
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		q := float64(qRaw) / 255 * 100
		got := p.Percentile(q)
		return got >= min && got <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "R", "groups", "ratio")
	tb.AddRow(0, 890000, 1.0)
	tb.AddRow(12, 998000, 1.05321)
	out := tb.String()
	if !strings.Contains(out, "Results") || !strings.Contains(out, "groups") {
		t.Fatalf("table output:\n%s", out)
	}
	if !strings.Contains(out, "890000") || !strings.Contains(out, "1.053") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}
