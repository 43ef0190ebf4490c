package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("elmo_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("elmo_test_level", "level")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Get-or-create returns the same instrument.
	if r.Counter("elmo_test_ops_total", "ops") != c {
		t.Fatal("re-registering counter returned a different instrument")
	}
	if r.Gauge("elmo_test_level", "level") != g {
		t.Fatal("re-registering gauge returned a different instrument")
	}
}

// TestNilHandlesDoNothing: every write method of a nil handle returns,
// so a metrics bundle whose handles were never registered is
// "telemetry off" with no wrapper to check it.
func TestNilHandlesDoNothing(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(0.25) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("nil handle panicked: %v", r)
				}
			}()
			tc.call()
		})
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("elmo_test_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 5, 100, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6 (NaN dropped)", got)
	}
	if got := h.Sum(); math.Abs(got-106.65) > 1e-9 {
		t.Fatalf("sum = %v, want 106.65", got)
	}
	cum := make([]int64, 4)
	total := h.cumulative(cum)
	// le=0.1 -> {0.05, 0.1}; le=1 -> +{0.5, 1}; le=10 -> +{5}; +Inf -> +{100}
	want := []int64{2, 4, 5, 6}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
}

func TestVecInterning(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("elmo_test_pkts_total", "pkts", "tier")
	leaf := v.With("leaf")
	leaf2 := v.With("leaf")
	if leaf != leaf2 {
		t.Fatal("With should intern identical label sets")
	}
	spine := v.With("spine")
	if leaf == spine {
		t.Fatal("distinct label sets must get distinct counters")
	}
	leaf.Add(3)
	spine.Inc()
	snap := r.Snapshot()
	if got := snap.Get(`elmo_test_pkts_total{tier="leaf"}`); got != 3 {
		t.Fatalf("leaf series = %v, want 3", got)
	}
	if got := snap.Get(`elmo_test_pkts_total{tier="spine"}`); got != 1 {
		t.Fatalf("spine series = %v, want 1", got)
	}
}

func TestRegistryMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("elmo_test_x_total", "x")
	for name, fn := range map[string]func(){
		"kind":   func() { r.Gauge("elmo_test_x_total", "x") },
		"labels": func() { r.CounterVec("elmo_test_x_total", "x", "tier") },
		"badname": func() {
			r.Counter("1bad name", "x")
		},
		"le-label": func() { r.CounterVec("elmo_test_y_total", "y", "le") },
		"arity": func() {
			v := r.CounterVec("elmo_test_z_total", "z", "a", "b")
			v.With("only-one")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("elmo_test_fn", "fn", func() float64 { return 1 })
	r.GaugeFunc("elmo_test_fn", "fn", func() float64 { return 2 })
	if got := r.Snapshot().Get("elmo_test_fn"); got != 2 {
		t.Fatalf("gauge func = %v, want 2 (replaced)", got)
	}
	v := r.GaugeVec("elmo_test_fnv", "fnv", "tier")
	v.Func(func() float64 { return 7 }, "leaf")
	if got := r.Snapshot().Get(`elmo_test_fnv{tier="leaf"}`); got != 7 {
		t.Fatalf("labeled gauge func = %v, want 7", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("elmo_test_d_total", "d")
	h := r.Histogram("elmo_test_dh_seconds", "dh", []float64{1})
	before := r.Snapshot()
	c.Add(4)
	h.Observe(0.5)
	h.Observe(2)
	d := r.Snapshot().Delta(before)
	checks := map[string]float64{
		"elmo_test_d_total":                      4,
		`elmo_test_dh_seconds_bucket{le="1"}`:    1,
		`elmo_test_dh_seconds_bucket{le="+Inf"}`: 2,
		"elmo_test_dh_seconds_count":             2,
		"elmo_test_dh_seconds_sum":               2.5,
	}
	for k, want := range checks {
		if got := d.Get(k); got != want {
			t.Errorf("delta[%s] = %v, want %v", k, got, want)
		}
	}
	// Unchanged series are elided from the delta.
	if _, ok := d[`elmo_test_dh_seconds_bucket{le="1"}`]; !ok {
		t.Error("expected changed bucket key present")
	}
	d2 := r.Snapshot().Delta(r.Snapshot())
	if len(d2) != 0 {
		t.Fatalf("self-delta should be empty, got %v", d2)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("elmo_test_a_total", "a counter").Add(2)
	r.GaugeVec("elmo_test_b", "b gauge", "tier").With(`we"ird\v` + "\n").Set(1.5)
	h := r.Histogram("elmo_test_c_seconds", "c hist", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP elmo_test_a_total a counter",
		"# TYPE elmo_test_a_total counter",
		"elmo_test_a_total 2",
		"# TYPE elmo_test_b gauge",
		`elmo_test_b{tier="we\"ird\\v\n"} 1.5`,
		"# TYPE elmo_test_c_seconds histogram",
		`elmo_test_c_seconds_bucket{le="0.5"} 1`,
		`elmo_test_c_seconds_bucket{le="2"} 2`,
		`elmo_test_c_seconds_bucket{le="+Inf"} 2`,
		"elmo_test_c_seconds_sum 1.1",
		"elmo_test_c_seconds_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Families render in name order.
	ia := strings.Index(out, "elmo_test_a_total")
	ib := strings.Index(out, "elmo_test_b")
	ic := strings.Index(out, "elmo_test_c_seconds")
	if !(ia < ib && ib < ic) {
		t.Errorf("families out of order: a=%d b=%d c=%d", ia, ib, ic)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	r.Counter("elmo_test_served_total", "served").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	body := get("/metrics")
	for _, want := range []string{"elmo_test_served_total 1", "go_goroutines", "go_memstats_heap_inuse_bytes"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("pprof index not served")
	}
	if !strings.Contains(get("/"), "/metrics") {
		t.Error("index page not served")
	}
}

func TestConcurrentInstrumentsRace(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("elmo_test_race_total", "race", "w")
	h := r.Histogram("elmo_test_race_seconds", "race", LatencyBuckets)
	g := r.Gauge("elmo_test_race_level", "race")
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := v.With(fmt.Sprint(w % 2)) // interning raced on purpose
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				g.Add(1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent scrapes while writers run
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.WriteText(io.Discard)
			_ = r.Snapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot()
	total := snap.Get(`elmo_test_race_total{w="0"}`) + snap.Get(`elmo_test_race_total{w="1"}`)
	if want := float64(workers * iters); total != want {
		t.Fatalf("lost counter increments: %v, want %v", total, want)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("lost observations: %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != float64(workers*iters) {
		t.Fatalf("lost gauge adds: %v, want %v", got, workers*iters)
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("elmo_test_alloc_total", "alloc", "tier").With("leaf")
	g := r.Gauge("elmo_test_alloc_level", "alloc")
	h := r.Histogram("elmo_test_alloc_seconds", "alloc", LatencyBuckets)
	g.Set(1) // warm the CAS path
	if n := testing.AllocsPerRun(500, func() {
		c.Inc()
		c.Add(2)
		g.Add(0.5)
		h.Observe(3e-4)
	}); n != 0 {
		t.Fatalf("hot path allocated %v allocs/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("elmo_bench_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("elmo_bench_seconds", "b", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkVecWithCached(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("elmo_bench_vec_total", "b", "tier").With("leaf")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("elmo_test_quantile", "q", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// Empty histogram has no answer.
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram produced a quantile")
	}
	// 100 uniform samples 1..100: median should interpolate near 50.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(0.5); q < 40 || q > 60 {
		t.Fatalf("p50 = %v, want ~50", q)
	}
	if q := h.Quantile(0.99); q < 90 || q > 100 {
		t.Fatalf("p99 = %v, want ~99", q)
	}
	if q := h.Quantile(0); q > 10 {
		t.Fatalf("p0 = %v, want <= first bound", q)
	}
	// Everything in the overflow bucket degrades to the last bound.
	h2 := r.Histogram("elmo_test_quantile_inf", "q", []float64{1, 2})
	h2.Observe(50)
	if q := h2.Quantile(0.9); q != 2 {
		t.Fatalf("overflow quantile = %v, want 2", q)
	}
	// Out-of-range q.
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Fatal("out-of-range q accepted")
	}
}
