package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {99, 0.5}, {100, 0.9}, {1 << 20, 0.9}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile,
		// unless it is the median.
		if q := tailQuantile(c.n); q > 0.5 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("n=%d: p%g has only %g samples beyond it", c.n, q*100, float64(c.n)*(1-q))
		}
	}
}

func TestMedianOfReps(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 3 = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g", got)
	}
	sorted := []float64{10, 20, 30, 40, 50}
	if got := quantile(sorted, 0.5); got != 30 {
		t.Errorf("p50 = %g, want 30", got)
	}
	if got := quantile(sorted, 0.9); math.Abs(got-46) > 1e-9 {
		t.Errorf("p90 = %g, want 46", got)
	}
}

// TestQuartilesMatchPython pins quartiles() to the values Python's
// statistics.quantiles(values, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3.2, 1.1, 9.4, 4.4, 7.0})
	if math.Abs(q1-2.15) > 1e-9 || q2 != 4.4 || math.Abs(q3-8.2) > 1e-9 {
		t.Errorf("quartiles of five = %g %g %g, want 2.15 4.4 8.2", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

// TestStatsKeepEverySlice: one entry per slice, the percentile chosen by
// the samples of the whole phase, and a disturbed minority of slices
// leaves the medians a run reports where they were.
func TestStatsKeepEverySlice(t *testing.T) {
	start := time.Unix(0, 0)
	ph := newPhase(start, phaseSlices) // slices of 1 s
	fill := func(slice, n int, d time.Duration) {
		for i := 0; i < n; i++ {
			ph.add(start.Add(time.Duration(slice)*time.Second+time.Duration(i)*time.Microsecond), 1, d)
		}
	}
	for slice := 0; slice < phaseSlices-1; slice++ {
		if slice < 5 {
			fill(slice, 40, 400*time.Microsecond) // a neighbour took most of these seconds
		} else {
			fill(slice, 100, 100*time.Microsecond)
		}
	}
	ph.add(ph.end(), 1, time.Microsecond) // after the last slice: counted nowhere
	st := ph.stats()
	if len(st.rates) != phaseSlices || st.rates[0] != 40 || st.rates[phaseSlices-1] != 0 || len(st.p50s) != phaseSlices-1 {
		t.Errorf("rates %v, %d latencies", st.rates, len(st.p50s))
	}
	if st.samples != 5*40+9*100 || st.tailQ != 0.90 {
		t.Errorf("%d samples gave p%g, want 1100 and p90", st.samples, st.tailQ*100)
	}
	if median(st.rates) != 100 || median(st.p50s) != 100 || median(st.tails) != 100 {
		t.Errorf("median slice: %g ops/s, p50 %g us, tail %g us; want 100 each", median(st.rates), median(st.p50s), median(st.tails))
	}
}

func TestSamplerStaysBoundedAndEven(t *testing.T) {
	s := newSampler()
	const n = samplerCap*4 + 123
	for i := 1; i <= n; i++ {
		s.add(time.Duration(i))
	}
	if len(s.ns) > samplerCap || len(s.ns) < samplerCap/2 {
		t.Fatalf("kept %d samples of %d, cap %d", len(s.ns), n, samplerCap)
	}
	if s.seen != n {
		t.Fatalf("seen = %d, want %d", s.seen, n)
	}
	// An evenly spaced subset of 1..n keeps the median where it was.
	if got, want := quantile(s.micros(), 0.5)*1e3, float64(n)/2; math.Abs(got-want) > float64(n)/100 {
		t.Fatalf("median of the kept samples = %g, want about %g", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	c := newSpanCtx(epoch, 0)
	c.beginOp("op.create", 7, at(0))
	c.leaf("durable.create", at(10), at(60))
	c.enterAt("fabric", at(60))
	c.leaf("fabric.install", at(62), at(82))
	c.leaf("fabric.send", at(82), at(92))
	c.leaveAt(at(95))
	c.leaveAt(at(100))

	a := mergeSpans([]*spanCtx{c, nil})
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	if got := us(a["op.create"].Total); got != 100 {
		t.Errorf("op total = %g us, want 100", got)
	}
	// 100 - (50 + 35): the parts of the op no child span covers.
	if got := us(a["op.create"].SelfNs); got != 15 {
		t.Errorf("op self = %g us, want 15", got)
	}
	if got := us(a["fabric"].SelfNs); got != 5 {
		t.Errorf("fabric self = %g us, want 5", got)
	}
	if got := meanMicros(a, "fabric.install"); got != 20 {
		t.Errorf("mean fabric.install = %g us, want 20", got)
	}
	// Self times of a span tree add up to the root's duration.
	var selfSum time.Duration
	for _, agg := range a {
		selfSum += agg.SelfNs
	}
	if us(selfSum) != 100 {
		t.Errorf("self times sum to %g us, want 100", us(selfSum))
	}
	if len(c.kept) != 5 || c.kept[len(c.kept)-1].Parent != -1 || c.kept[0].Parent != 0 || c.kept[0].Op != 7 {
		t.Errorf("kept spans = %+v", c.kept)
	}

	path := filepath.Join(t.TempDir(), "trace", "spans.jsonl")
	if err := writeSpans(path, []*spanCtx{c}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("%d span lines, want 5", len(lines))
	}
	var first span
	if err := json.Unmarshal(lines[0], &first); err != nil || first.Name != "op.create" {
		t.Fatalf("first span line %s: %v", lines[0], err)
	}

	var off *spanCtx // the untraced run
	off.beginOp("op", 0, at(0))
	off.leaf("x", at(0), at(1))
	off.leaveAt(at(2))
}

type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

func currentSpec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}

// TestBenchmarkJSONMatchesTheTables keeps the checked-in contract and
// the harness from drifting apart, and checks the contract's own limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(currentSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in spec.go; it should read:\n%s", want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is invalid", n, u)
		}
	}
	spec := currentSpec()
	for _, w := range spec.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no setup", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound < 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g or direction %q out of range", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Error("metric counts or run_seconds outside the contract's limits")
	}
}

// TestOnlySUTImportsTheSystem confines calls into the system to sut.go.
func TestOnlySUTImportsTheSystem(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"InstallGroup(", "UninstallGroup(", ".Process(", "ReferenceProcess", "ReferenceAssign", "SetReferenceProcessing", "elmo/internal/metrics"}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if f == "sut.go" {
			for _, b := range banned {
				if bytes.Contains(src, []byte(b)) {
					t.Errorf("sut.go uses %s, which the engine item plans to delete", b)
				}
			}
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "elmo/") {
				t.Errorf("%s imports %s; only sut.go may import the system", f, imp.Path.Value)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		def  metricDef
		b    []float64
		want string
	}{
		{"same", lower, []float64{101, 100, 99, 100, 102}, verdictPass},
		{"latency up 20%", lower, []float64{120, 121, 119, 120, 122}, verdictRegressed},
		{"latency down 20%", lower, []float64{80, 81, 79, 80, 82}, verdictPass},
		{"throughput down 20%", higher, []float64{80, 81, 79, 80, 82}, verdictRegressed},
		{"throughput up 20%", higher, []float64{120, 121, 119, 120, 122}, verdictPass},
		{"within the bound", lower, []float64{108, 109, 107, 108, 110}, verdictPass},
		{"spread wider than the bound", lower, []float64{70, 130, 100, 85, 120}, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.def, steady, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// write makes a set of five seeds per workload. ops is the level of
	// ops_per_s; coverage is added to prule_coverage at seed firstSeed+2.
	write := func(name string, firstSeed int64, ops, coverage float64, correct bool) string {
		path := filepath.Join(dir, name)
		for _, w := range workloadDefs {
			for seed := firstSeed; seed < firstSeed+5; seed++ {
				r := &result{Workload: w.Name, Seed: seed, Correct: correct, Attempted: 10, Metrics: metrics{}}
				for _, d := range endToEndDefs {
					r.Metrics.set(d.Name, 100+float64(seed), d.Unit, 1)
				}
				r.Metrics.set("ops_per_s", ops+float64(seed), "1/s", 1)
				if seed == firstSeed+2 {
					r.Metrics.set("prule_coverage", 100+float64(seed)+coverage, "ratio", 1)
				}
				if err := appendResult(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", 1, 1000, 0, true)
	var out bytes.Buffer
	if ok, err := compareSets(&out, a, write("same.jsonl", 1, 1000, 0, true)); err != nil || !ok {
		t.Fatalf("equal sets: ok=%t err=%v\n%s", ok, err, out.String())
	}
	if rows := strings.Count(out.String(), " "+verdictPass+"\n"); rows != len(workloadDefs)*len(endToEndDefs) {
		t.Fatalf("%d pass rows, want one per metric x workload:\n%s", rows, out.String())
	}
	out.Reset()
	if ok, _ := compareSets(&out, a, write("slow.jsonl", 1, 700, 0, true)); ok || !strings.Contains(out.String(), verdictRegressed) {
		t.Fatalf("a 30%% throughput loss was not flagged:\n%s", out.String())
	}
	if ok, _ := compareSets(&out, a, write("wrong.jsonl", 1, 1000, 0, false)); ok {
		t.Fatal("a set with oracle failures compared clean")
	}

	// An exact count is paired by seed and may lose nothing: 1% less
	// coverage at one seed of five regresses, although the medians are
	// equal and the metric's pooled bound is 5%.
	out.Reset()
	if ok, _ := compareSets(&out, a, write("worse-encoding.jsonl", 1, 1000, -1, true)); ok ||
		strings.Count(out.String(), verdictRegressed) != len(workloadDefs)+1 {
		t.Fatalf("a coverage loss at one seed was not flagged on every workload:\n%s", out.String())
	}
	out.Reset()
	if ok, _ := compareSets(&out, a, write("better-encoding.jsonl", 1, 1000, +1, true)); !ok {
		t.Fatalf("a coverage gain was flagged:\n%s", out.String())
	}
	// Sets with no seed in common cannot be paired.
	out.Reset()
	if ok, _ := compareSets(&out, a, write("other-seeds.jsonl", 6, 1000, 0, true)); ok || !strings.Contains(out.String(), verdictUnresolved) {
		t.Fatalf("exact counts of disjoint seeds were compared:\n%s", out.String())
	}
}

func TestMetricsCompleteEnforcesTheContract(t *testing.T) {
	m := metrics{}
	for _, d := range endToEndDefs {
		m.set(d.Name, 1, d.Unit, 0)
	}
	if err := m.complete(false); err != nil {
		t.Fatalf("a full result was rejected: %v", err)
	}
	m.set("ops_per_s", 0, "1/s", 0)
	if z := m.zeroes(); len(z) != 1 || z[0] != "ops_per_s" {
		t.Fatalf("zeroes() = %v, want the one metric that reads 0", z)
	}
	m.set("ops_per_s", 1, "1/s", 0)
	m.set("stray", 1, "s", 0)
	if m.complete(false) == nil {
		t.Fatal("a metric outside the contract was accepted")
	}
	traced := metrics{}
	traced.set("wal.commit_us", 3, "us", 5)
	if err := traced.complete(true); err != nil || len(traced) != len(perLayerDefs) {
		t.Fatalf("idle layers were not filled in: %v, %d metrics", err, len(traced))
	}
}
