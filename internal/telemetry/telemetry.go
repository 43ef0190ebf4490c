// Package telemetry is the repo's live instrumentation layer: atomic
// counters and gauges, lock-free fixed-bound histograms, and a labeled
// registry with cheap label-set interning, exposed in Prometheus text
// format over an opt-in HTTP listener (see Serve) next to net/http/pprof.
//
// Where package trace answers *why* one packet took a path and package
// metrics aggregates offline experiment results, telemetry answers
// *what is the system doing right now*: s-rule occupancy against Fmax,
// per-tier forward rates, control-plane update latency, churn pressure —
// the §5 quantities observed continuously on a running process instead
// of tabulated after it exits.
//
// Cost model, which wiring code must preserve:
//
//   - Instrument handles (Counter, Gauge, Histogram) are obtained once
//     at setup via the registry (or a Vec's With, which interns the
//     label set under a short mutex). Hot paths never touch the
//     registry.
//   - The hot-path operations — Counter.Inc/Add, Gauge.Set/Add,
//     Histogram.Observe — are single atomic operations (Observe adds a
//     bounded binary search) and never allocate.
//   - Telemetry off means no handle attached: instrumented code guards
//     with a nil check, so a process that never wires a registry pays
//     one predictable branch per counter site and nothing else. The
//     fabric alloc-parity tests pin this.
//
// Registration is get-or-create: asking for an existing name with the
// same kind and label names returns the same instrument, so independent
// subsystems can share a family. Asking with a different kind or label
// set panics — that is a programming error, caught at wiring time.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use, but counters are normally created through a Registry so they
// appear in the exposition.
//
// The write methods of Counter, Gauge and Histogram (Inc, Add, Set,
// Observe) return on a nil receiver, so a metrics bundle whose handles
// were never registered is "telemetry off" with no wrapper to check it.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n; non-positive deltas are ignored
// (counters are monotonic by contract).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable value that can go up and down, stored as float64
// bits so rates and ratios fit alongside integral levels.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d (CAS loop; allocation-free).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed, precomputed upper-bound
// buckets (Prometheus "le" semantics: bucket i counts v <= bounds[i];
// one implicit +Inf bucket catches the rest). Observe is lock-free:
// a bounded binary search plus three atomic operations, no allocation.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample. NaN observations are dropped — they would
// poison the sum without landing in any bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bound >= v, hand-rolled so the disabled-inlining path of
	// sort.Search never costs a closure.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, interpolating linearly inside the target bucket the way
// Prometheus' histogram_quantile does. Conventions:
//
//   - The target bucket is the first whose cumulative count reaches
//     rank = q * Count(). Within it the estimate interpolates linearly
//     between the bucket's bounds; the implicit first bucket spans
//     [0, bounds[0]), so estimates never go below zero.
//   - q = 0 snaps to the first bucket: 0 when it holds observations,
//     else its upper bound (an empty bucket has no width to
//     interpolate across). q = 1 returns the upper bound of the
//     highest occupied finite bucket.
//   - Overflow: observations above the largest finite bound land in
//     the implicit +Inf bucket, which has no upper edge to
//     interpolate toward, so any rank landing there clamps to the
//     largest finite bound — the estimate is a floor, not an exact
//     order statistic. A histogram with all mass in overflow therefore
//     reports its largest finite bound for every q in (0, 1].
//   - Returns NaN for q outside [0, 1], for NaN q, for a histogram
//     with no observations, and for a histogram with no finite
//     buckets.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	cum := make([]int64, len(h.buckets))
	total := h.cumulative(cum)
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: best effort is the largest finite bound.
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		var below int64
		if i > 0 {
			lower = h.bounds[i-1]
			below = cum[i-1]
		}
		width := h.bounds[i] - lower
		inBucket := c - below
		if inBucket == 0 {
			return h.bounds[i]
		}
		return lower + width*(rank-float64(below))/float64(inBucket)
	}
	return h.bounds[len(h.bounds)-1]
}

// cumulative fills out with the cumulative bucket counts (le
// semantics), returning the total.
func (h *Histogram) cumulative(out []int64) int64 {
	var acc int64
	for i := range h.buckets {
		acc += h.buckets[i].Load()
		out[i] = acc
	}
	return acc
}

// ExponentialBuckets returns n bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LatencyBuckets spans 1µs..5s — control-plane operations land in the
// µs..ms decades, full batch installs in the upper ones.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Kind is the instrument family type.
type Kind uint8

const (
	// KindCounter is a monotonic counter.
	KindCounter Kind = iota
	// KindGauge is a settable level (or a function-backed gauge).
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one label-set instantiation of a family.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
	fn        func() float64 // function-backed gauge
}

// family is one named metric with its labeled series.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu    sync.Mutex
	order []*series
	byKey map[string]*series
}

// get interns one label-value set, creating the series on first use.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labelVals: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.byKey[key] = s
	f.order = append(f.order, s)
	return s
}

// Registry holds instrument families and renders them as snapshots and
// Prometheus text exposition. Safe for concurrent use; instruments are
// created under a short mutex and operated on without it.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family gets or creates a family, enforcing kind/label/bounds
// consistency.
func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		if !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with labels %v (was %v)", name, labels, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		byKey:  make(map[string]*series),
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// Counter returns the unlabeled counter with the given name, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil).c
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil).g
}

// GaugeFunc registers a function-backed gauge, evaluated at snapshot
// and exposition time. Re-registering the same name replaces the
// function — re-wiring a fresh subsystem into a long-lived registry
// re-points the gauge at the live instance.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	s := r.family(name, help, KindGauge, nil, nil).get(nil)
	s.fn = fn
}

// Histogram returns the unlabeled histogram with the given name and
// bucket upper bounds (sorted copies; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, KindHistogram, nil, bounds).get(nil).h
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels, nil)}
}

// With interns the label values and returns their counter. Callers
// cache the handle; With itself takes the family mutex.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, labels, nil)}
}

// With interns the label values and returns their gauge.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// Func binds a function-backed gauge to one label set (replacing any
// previous function there).
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.f.get(values).fn = fn
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family; all series share
// the bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, KindHistogram, labels, bounds)}
}

// With interns the label values and returns their histogram.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// Snapshot is a point-in-time flat view of every series, keyed by the
// exposition series identity (`name` or `name{l="v",...}`; histograms
// expand to `_bucket{...,le="..."}`, `_sum`, and `_count` entries with
// cumulative bucket counts). Deterministic scenarios therefore diff to
// exact deltas.
type Snapshot map[string]float64

// Get returns the value at the exact series key (0 when absent).
func (s Snapshot) Get(key string) float64 { return s[key] }

// Delta returns s - prev per key: the metric movement between two
// snapshots. Keys absent from prev count from zero; keys absent from s
// yield their negated prev value (a series that disappeared).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	for k, v := range prev {
		if _, ok := s[k]; !ok && v != 0 {
			out[k] = -v
		}
	}
	return out
}

// Keys returns the snapshot's series keys, sorted.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot captures every series (evaluating function gauges).
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot)
	for _, f := range r.families() {
		f.mu.Lock()
		ser := append([]*series(nil), f.order...)
		f.mu.Unlock()
		for _, s := range ser {
			base := seriesKey(f.name, f.labels, s.labelVals, "", 0)
			switch f.kind {
			case KindCounter:
				out[base] = float64(s.c.Value())
			case KindGauge:
				if s.fn != nil {
					out[base] = s.fn()
				} else {
					out[base] = s.g.Value()
				}
			case KindHistogram:
				cum := make([]int64, len(s.h.buckets))
				total := s.h.cumulative(cum)
				for i, b := range s.h.bounds {
					out[seriesKey(f.name+"_bucket", f.labels, s.labelVals, "le", b)] = float64(cum[i])
				}
				out[seriesKey(f.name+"_bucket", f.labels, s.labelVals, "le", math.Inf(1))] = float64(total)
				out[seriesKey(f.name+"_sum", f.labels, s.labelVals, "", 0)] = s.h.Sum()
				out[seriesKey(f.name+"_count", f.labels, s.labelVals, "", 0)] = float64(total)
			}
		}
	}
	return out
}

// families returns the family list sorted by name (short lock).
func (r *Registry) families() []*family {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// seriesKey renders the canonical series identity; extraLabel (e.g.
// "le") is appended last, Prometheus-style.
func seriesKey(name string, labels, values []string, extraLabel string, extraVal float64) string {
	if len(labels) == 0 && extraLabel == "" {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraLabel != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraLabel)
		sb.WriteString(`="`)
		sb.WriteString(formatBound(extraVal))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
