// Package obs is the live ops plane: windowed per-link utilization,
// top-K heavy-hitter groups, JSON introspection endpoints, and SLO
// burn-rate health, layered on internal/telemetry.
//
// The Plane implements dataplane.FlowObserver and attaches to a
// fabric with Fabric.SetObserver. The discipline matches trace and
// chaos: when disabled, the probe's guard (dataplane.Probe: one nil
// check plus one atomic load per site) skips every call, so the forwarding hot
// path allocates nothing and takes no locks — pinned by the
// alloc-parity tests and the bench-gate CI job. When enabled, the
// per-link path is two atomic adds and the per-send path is a few
// atomics plus one small sketch mutex.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// DurableStatus is the slice of the durable controller the ops plane
// reports (implemented by *durable.DurableController; declared here so
// obs does not import the durable machinery).
type DurableStatus interface {
	Epoch() uint64
	LastLSN() uint64
	SnapshotLSN() uint64
	LeaseMisses() int
	NotLeaderErr() error
	ReplicationErr() error
}

// The plane's tuning, fixed: no caller ever asked for another value.
const (
	topK           = 32                   // heavy-hitter sketch capacity
	ringWidth      = 60                   // rate buckets retained per link
	sampleEvery    = time.Second          // sampler cadence
	latencyBound   = 5 * time.Millisecond // a send is "good" when it completes within this
	deliveryTarget = 0.999                // SLO good-ratio targets
	latencyTarget  = 0.99
)

// Options configures a Plane. Topology is required; everything else
// is optional.
type Options struct {
	Topology *topology.Topology
	// Registry, when set, receives the elmo_obs_* and elmo_slo_*
	// metric families.
	Registry *telemetry.Registry
	// Controller, when set, backs the /debug/elmo/groups, group, and
	// controller endpoints.
	Controller *controller.Controller
	// Durable, when set, adds epoch/WAL/lease state to the controller
	// endpoint and leader validity to /readyz.
	Durable DurableStatus
	// FollowerAcks, when set, gates /readyz on replication currency
	// (ready only when acked == total). Typically
	// ReplicaSet.FollowerAcks.
	FollowerAcks func() (acked, total int)
}

// Plane is the ops plane instance. Zero value is not usable; build
// with New. A fresh Plane starts disabled — attach it, then Enable.
type Plane struct {
	opts    Options
	enabled atomic.Bool

	links  *LinkTable
	groups *Sketch

	// Cumulative SLO inputs, written on the per-send path.
	delivered atomic.Int64 // host copies delivered
	lost      atomic.Int64 // copies lost in flight
	sends     atomic.Int64 // completed sends
	fastSends atomic.Int64 // sends within latencyBound

	slo         *SLOEngine
	latencyHist *telemetry.Histogram
	hopsHist    *telemetry.Histogram
}

// New builds a Plane over the topology described by opts.
func New(opts Options) *Plane {
	p := &Plane{
		opts:   opts,
		links:  NewLinkTable(opts.Topology, ringWidth),
		groups: NewSketch(topK),
	}
	p.slo = NewSLOEngine([]Objective{
		{
			Name:   "delivery_ratio",
			Target: deliveryTarget,
			Good:   p.delivered.Load,
			Total:  func() int64 { return p.delivered.Load() + p.lost.Load() },
		},
		{
			Name:   "send_latency",
			Target: latencyTarget,
			Good:   p.fastSends.Load,
			Total:  p.sends.Load,
		},
	}, DefaultBurnRules())
	if reg := opts.Registry; reg != nil {
		p.latencyHist = reg.Histogram("elmo_obs_send_latency_seconds",
			"Wall-clock fabric forwarding time per send.", telemetry.LatencyBuckets)
		p.hopsHist = reg.Histogram("elmo_obs_send_hops",
			"Switch traversals per send.", []float64{1, 2, 4, 8, 16, 32, 64, 128})
		reg.GaugeFunc("elmo_slo_healthy",
			"1 when no page-severity SLO burn rule is firing.",
			func() float64 { return b2f(p.Status().Healthy) })
		reg.GaugeFunc("elmo_slo_ready",
			"1 when the instance is ready to serve (leader valid, replication current).",
			func() float64 { ok, _ := p.Ready(); return b2f(ok) })
		ratios := reg.GaugeVec("elmo_slo_good_ratio",
			"All-time good ratio per SLO objective.", "objective")
		burns := reg.GaugeVec("elmo_slo_burn_rate",
			"Error-budget burn rate per objective over the rule windows.", "objective", "window")
		for _, name := range []string{"delivery_ratio", "send_latency"} {
			obj := name
			ratios.Func(func() float64 {
				for _, o := range p.Status().Objectives {
					if o.Name == obj {
						return o.GoodRatio
					}
				}
				return 1
			}, obj)
			seen := map[time.Duration]bool{}
			for _, r := range DefaultBurnRules() {
				for _, w := range []time.Duration{r.Short, r.Long} {
					if seen[w] {
						continue
					}
					seen[w] = true
					win := w
					burns.Func(func() float64 {
						b, _ := p.slo.BurnRate(obj, win)
						return b
					}, obj, win.String())
				}
			}
		}
	}
	return p
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Enable turns observation on; Disable returns the fabric hot path to
// its zero-cost state.
func (p *Plane) Enable()  { p.enabled.Store(true) }
func (p *Plane) Disable() { p.enabled.Store(false) }

// Active implements dataplane.FlowObserver.
func (p *Plane) Active() bool { return p.enabled.Load() }

// ObserveLink implements dataplane.FlowObserver: two atomic adds.
func (p *Plane) ObserveLink(l dataplane.Link, bytes int) {
	p.links.observe(l, bytes)
}

// ObserveSend implements dataplane.FlowObserver.
func (p *Plane) ObserveSend(s dataplane.SendSample) {
	if s.VNI == dataplane.ProbeVNI {
		return // chaos liveness probes are not tenant traffic
	}
	p.delivered.Add(int64(s.Delivered))
	p.lost.Add(int64(s.Lost))
	p.sends.Add(1)
	if s.Nanos <= latencyBound.Nanoseconds() {
		p.fastSends.Add(1)
	}
	if p.latencyHist != nil {
		p.latencyHist.Observe(float64(s.Nanos) / 1e9)
		p.hopsHist.Observe(float64(s.Hops))
	}
	p.groups.Update(groupKey(s.VNI, s.Group), 1, s.Bytes)
}

// Sample takes one observation cut at time now: a rate bucket per link
// and an SLO sample per objective. The sampler goroutine calls it at
// the configured cadence; tests call it with explicit times.
func (p *Plane) Sample(now time.Time) {
	p.links.Sample(now)
	p.slo.Tick(now)
}

// StartSampler launches the background sampler; the returned func
// stops it (idempotent).
func (p *Plane) StartSampler() (stop func()) {
	ch := make(chan struct{})
	go func() {
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-ch:
				return
			case now := <-t.C:
				p.Sample(now)
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(ch)
		}
	}
}

// Links returns the link timeseries table.
func (p *Plane) Links() *LinkTable { return p.links }

// TopGroups returns the heavy-hitter estimate, hottest first.
func (p *Plane) TopGroups(n int) []HeavyHitter { return p.groups.Top(n) }

// TopLinks returns the most loaded links over the last `buckets` rate
// samples (0 = whole window).
func (p *Plane) TopLinks(n, buckets int) []LinkRate { return p.links.TopN(n, buckets) }

// Status evaluates the SLO rules.
func (p *Plane) Status() SLOStatus { return p.slo.Status() }

// Ready reports readiness: the SLO engine does not gate it (burn is a
// health signal, not a serving gate); leadership and replication
// currency do. With no durable hooks configured the instance is
// always ready.
func (p *Plane) Ready() (bool, []string) {
	var reasons []string
	if d := p.opts.Durable; d != nil {
		if err := d.NotLeaderErr(); err != nil {
			reasons = append(reasons, "not leader: "+err.Error())
		}
		if err := d.ReplicationErr(); err != nil {
			reasons = append(reasons, "replication: "+err.Error())
		}
	}
	if p.opts.FollowerAcks != nil {
		acked, total := p.opts.FollowerAcks()
		if acked < total {
			reasons = append(reasons,
				fmt.Sprintf("replication lagging: %d/%d followers current", acked, total))
		}
	}
	return len(reasons) == 0, reasons
}
