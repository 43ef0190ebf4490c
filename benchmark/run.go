package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// params selects and sizes one run.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale divides every workload size. Only tests set it: the smoke
	// tests run at 1/200.
	scale int
	// tmpDir holds WAL directories and span files, inside the checkout.
	tmpDir string
	// setupReps is how often an untraced run sets up (setup_s is the
	// median); 0 means defaultSetupReps.
	setupReps int
}

func (p params) scaled(n int) int { return max(1, n/max(1, p.scale)) }

// sut is one workload's system under test, set up and warm.
type sut interface {
	// timedPhase runs the workload's closed loop for the given time.
	timedPhase(seconds float64, traced bool) timed
	// layerMetrics fills the per-layer metrics after a traced phase.
	layerMetrics(m metrics, tr timed) error
	// describe returns the seed-exact counts, the operations setup
	// verified, and the digest of the generated op sequence.
	describe() (exactCounts, tally, string)
	close() error
}

var setups = map[string]func(p params, reg *Registry) (sut, error){
	"lifecycle":       func(p params, reg *Registry) (sut, error) { return setupLifecycle(p, reg) },
	"bulk-recover":    func(p params, reg *Registry) (sut, error) { return setupBulk(p, reg) },
	"fanout-sync":     func(p params, reg *Registry) (sut, error) { return setupFanout(p, false, reg) },
	"fanout-degraded": func(p params, reg *Registry) (sut, error) { return setupFanout(p, true, reg) },
	"fanout-udp":      func(p params, reg *Registry) (sut, error) { return setupUDP(p, reg) },
}

const defaultSetupReps = 5

// onePWorkloads have one caller goroutine and run on one P. A second P
// would be idle but for the garbage collector's workers and, on
// lifecycle, the WAL's flusher, which the client hands every operation
// to and back: each of those wakes a sleeping OS thread (on lifecycle
// runtime.futex was 10% of the CPU profile and wal.queue_us 23 of the 47
// us an operation took), and how long this host takes to wake a halted
// vCPU then decides the result. Interleaved runs of one commit spread
// 15-17% around their median with two Ps and 4-10% with one. bulk-recover
// (InstallBatch has a worker per P) and fanout-udp (a reader goroutine
// per device) keep the machine's GOMAXPROCS.
var onePWorkloads = map[string]bool{"lifecycle": true, "fanout-sync": true, "fanout-degraded": true}

// timed is what one timed phase produced.
type timed struct {
	tally
	units float64 // verified work completed, in the workload's own unit
	// childPeakKB is the largest resident set a child process reported
	// (bulk-recover's recovery children).
	childPeakKB int64
	slices      sliceStats
	spans       []*spanCtx
}

// beginPhase starts the clock of a timed phase for one client: its slice
// recorder and, in the traced run, its span recorder.
func beginPhase(seconds float64, traced bool, client int) (timed, *phase, *spanCtx) {
	var out timed
	ph := newPhase(time.Now(), seconds)
	var ctx *spanCtx
	if traced {
		ctx = newSpanCtx(ph.start, client)
		out.spans = []*spanCtx{ctx}
	}
	return out, ph, ctx
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Digest    string   `json:"workload_digest"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FirstErr  string   `json:"first_error,omitempty"`
	Metrics   metrics  `json:"metrics"`
	// SliceRates is the throughput of each slice of the timed phase: how
	// steady the machine was during the run.
	SliceRates []float64 `json:"slice_ops_per_s,omitempty"`
	SliceP50s  []float64 `json:"slice_p50_us,omitempty"`
	SliceTails []float64 `json:"slice_tail_us,omitempty"`
}

func runBenchmark(p params) (*result, error) {
	setup, ok := setups[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	if onePWorkloads[p.workload] {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	res := &result{Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Trace: p.trace,
		Host: describeHost(p), Metrics: metrics{}}
	var all tally
	finish := func(s sut) (*result, error) {
		_, setupTally, digest := s.describe()
		all.merge(setupTally)
		res.Digest = digest
		res.Attempted, res.Failed = all.attempted, all.failed
		res.Correct = all.failed == 0 && all.attempted > 0
		if all.first != nil {
			res.FirstErr = all.first.Error()
		}
		return res, res.Metrics.complete(p.trace)
	}

	if !p.trace {
		var s sut
		var setupS []float64
		reps := p.setupReps
		if reps <= 0 {
			reps = defaultSetupReps
		}
		for i := 0; i < reps; i++ {
			if s != nil {
				if err := s.close(); err != nil {
					return nil, err
				}
				s = nil
				runtime.GC()
			}
			t0 := time.Now()
			var err error
			if s, err = setup(p, nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		defer s.close()
		tr := s.timedPhase(p.seconds, false)
		all.merge(tr.tally)
		if tr.units == 0 || len(tr.slices.p50s) == 0 {
			return nil, fmt.Errorf("no operation completed within a slice of the %.2f s timed phase (first error: %v)", p.seconds, tr.first)
		}
		endToEnd(res.Metrics, s, tr, setupS)
		res.SliceRates = tr.slices.rates
		res.SliceP50s = tr.slices.p50s
		res.SliceTails = tr.slices.tails
		return finish(s)
	}

	// Traced run: a third of the time untraced on a system of its own,
	// for the tracing overhead, then the traced phase.
	plain, err := setup(p, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	base := plain.timedPhase(p.seconds/3, false)
	if err := plain.close(); err != nil {
		return nil, err
	}
	all.merge(base.tally)
	runtime.GC()
	s, err := setup(p, newRegistry())
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()
	tr := s.timedPhase(p.seconds*2/3, true)
	all.merge(tr.tally)
	// Throughput over the whole of each phase, not its median slice: the
	// untraced third is short, and in a smoke test most of its slices
	// can be empty.
	plainRate, tracedRate := mean(base.slices.rates), mean(tr.slices.rates)
	if plainRate == 0 || tracedRate == 0 {
		return nil, fmt.Errorf("no operation completed in the traced run (first error: %v)", all.first)
	}
	m := res.Metrics
	if err := s.layerMetrics(m, tr); err != nil {
		return nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	m.set("harness.trace_overhead_ratio", tracedRate/plainRate, "ratio", 0)
	var opTotal, opSelf time.Duration
	for name, a := range mergeSpans(tr.spans) {
		if strings.HasPrefix(name, "op.") {
			opTotal += a.Total
			opSelf += a.SelfNs
		}
	}
	if opTotal > 0 {
		m.set("harness.op_self_ratio", float64(opSelf)/float64(opTotal), "ratio", 0)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		m.set("harness.cpu_s", cpu.Seconds(), "s", 0)
	}
	spanFile := filepath.Join(p.tmpDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", p.workload, p.seed))
	if err := writeSpans(spanFile, tr.spans); err != nil {
		return nil, err
	}
	return finish(s)
}

// endToEnd fills the metrics a user of the system would see.
func endToEnd(m metrics, s sut, tr timed, setupS []float64) {
	exact, _, _ := s.describe()
	// Each is the median over the slices: see phaseSlices.
	sl := tr.slices
	m.set("ops_per_s", median(sl.rates), "1/s", len(sl.rates))
	m.set("op_p50_us", median(sl.p50s), "us", sl.samples)
	m.set("op_p90_us", median(sl.tails), "us", sl.samples)
	if sl.tailQ != 0.90 {
		m.note("op_p90_us", fmt.Sprintf("p%.0f: fewer than ten samples of the phase lie beyond p90", sl.tailQ*100))
	}
	m.set("prule_coverage", exact.pruleCoverage(), "ratio", exact.Groups)
	m.set("wire_overhead_ratio", exact.wireOverhead(), "ratio", exact.Sends)
	m.set("peak_rss_mb", peakRSSMB(tr.childPeakKB), "MB", 0)
	m.set("setup_s", median(setupS), "s", len(setupS))
}

// peakRSSMB is getrusage's maximum resident set of this process, or that
// of its largest recovery child if larger. (A child reports its own
// VmHWM: RUSAGE_CHILDREN would count the compiler run.sh ran before it
// exec'd this binary, and a child's ru_maxrss starts at its parent's.)
func peakRSSMB(childPeakKB int64) float64 {
	peak := childPeakKB
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		peak = max(peak, int64(ru.Maxrss))
	}
	return float64(peak) / 1024 // Linux reports KiB
}

// print writes the human-readable report and, as the last line, the
// one-object summary the benchmark contract asks for.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "elmo benchmark: workload=%s seed=%d seconds=%g trace=%t\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	h := r.Host
	fmt.Fprintf(w, "host: commit=%s go=%s nproc=%d gomaxprocs=%d wal_fs=%s transport=%s\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GoMaxProcs, h.WALFilesystem, h.Transport)
	fmt.Fprintf(w, "workload_digest: %s\n", r.Digest)
	fmt.Fprintf(w, "oracle: attempted=%d failed=%d failed_ratio=%g\n", r.Attempted, r.Failed,
		tally{attempted: r.Attempted, failed: r.Failed}.failedRatio())
	if r.FirstErr != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.FirstErr)
	}
	if len(r.SliceRates) > 0 {
		// The metrics below are the median slice; a neighbour, or a
		// change, that slows fewer than half the slices shows here.
		s := append([]float64(nil), r.SliceRates...)
		sort.Float64s(s)
		fmt.Fprintf(w, "slices: n=%d ops_per_s best=%.6g median=%.6g worst=%.6g\n", len(s), s[len(s)-1], median(s), s[0])
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := r.Metrics[name]
		line := fmt.Sprintf("  %-32s %16.6g %-6s", name, mv.Value, mv.Unit)
		if mv.N > 0 {
			line += fmt.Sprintf(" n=%d", mv.N)
		}
		if mv.Note != "" {
			line += " (" + mv.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]contractMetric, len(r.Metrics))}
	for name, mv := range r.Metrics {
		summary.Metrics[name] = contractMetric{mv.Value, mv.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
