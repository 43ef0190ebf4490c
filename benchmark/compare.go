package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare a.jsonl b.jsonl judges set b against set a (files written
// with -out, one result per line) and prints one verdict per metric x
// workload row. A timing's bound is applied to the medians of the two
// sets; an exact count is paired by seed and may get worse by nothing.

const (
	verdictPass       = "pass"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the runs cannot show agreement: spread wider than the bound, or no seed in both sets
)

// readResults loads the untraced results of a set, by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func metricValues(rs []*result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if mv, ok := r.Metrics[name]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

// worseBy is how much worse b is than a, as a share of a.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// row is one line of the comparison table.
type row struct {
	verdict       string
	medA, medB    float64
	worse         float64 // of the medians, or of the worst seed for an exact count
	spread, bound float64
}

// judge compares the pooled runs of set b against those of set a by
// their medians.
func judge(def metricDef, a, b []float64) row {
	r := row{medA: median(a), medB: median(b), spread: max(spread(a), spread(b)), bound: def.Bound}
	r.worse = worseBy(def, r.medA, r.medB)
	switch {
	case r.spread > def.Bound:
		r.verdict = verdictUnresolved
	case r.worse > def.Bound:
		r.verdict = verdictRegressed
	default:
		r.verdict = verdictPass
	}
	return r
}

// judgeExact compares an exact count seed by seed: at every seed both
// sets ran, no run of b may read worse than any run of a. The medians
// shown are over those seeds.
func judgeExact(def metricDef, a, b []*result) row {
	bySeed := func(rs []*result) map[int64][]float64 {
		m := make(map[int64][]float64)
		for _, r := range rs {
			if mv, ok := r.Metrics[def.Name]; ok {
				m[r.Seed] = append(m[r.Seed], mv.Value)
			}
		}
		return m
	}
	sa, sb := bySeed(a), bySeed(b)
	r := row{verdict: verdictPass}
	var va, vb []float64
	for seed, xs := range sa {
		ys := sb[seed]
		if len(ys) == 0 {
			continue
		}
		va, vb = append(va, xs...), append(vb, ys...)
		for _, x := range xs {
			for _, y := range ys {
				r.worse = max(r.worse, worseBy(def, x, y))
			}
		}
	}
	r.medA, r.medB = median(va), median(vb)
	switch {
	case len(va) == 0:
		r.verdict = verdictUnresolved
	case r.worse > 0:
		r.verdict = verdictRegressed
	}
	return r
}

// compareSets prints the table and reports whether the two sets agree:
// every row passed and every run of both sets passed its oracle.
func compareSets(w io.Writer, pathA, pathB string) (agree bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	agree = true
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, wl := range workloadDefs {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s missing from %s\n", wl.Name, map[bool]string{true: pathA, false: pathB}[len(ra) == 0])
			agree = false
			continue
		}
		for _, r := range append(append([]*result(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-16s seed %d failed its oracle: %d of %d operations\n", wl.Name, r.Seed, r.Failed, r.Attempted)
				agree = false
			}
		}
		for _, def := range endToEndDefs {
			var r row
			if def.Exact {
				r = judgeExact(def, ra, rb)
			} else {
				r = judge(def, metricValues(ra, def.Name), metricValues(rb, def.Name))
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, def.Name, r.medA, r.medB, r.worse*100, r.spread*100, r.bound*100, r.verdict)
			counts[r.verdict]++
			if r.verdict != verdictPass {
				agree = false
			}
		}
	}
	fmt.Fprintf(w, "%d pass, %d regressed, %d unresolved\n", counts[verdictPass], counts[verdictRegressed], counts[verdictUnresolved])
	return agree, nil
}
