// Package chaos is the deterministic fault-injection subsystem: a
// seeded Injector that all three fabric tiers consult at every link
// crossing (via the dataplane.FaultInjector hook), a FaultPlan that
// scripts failures and repairs against a logical clock, and a Monitor
// that detects failures from probe loss — rather than being told —
// and drives the controller through the §3.3 recovery path.
//
// Faults are drawn from a splitmix64 stream seeded by Config.Seed, so
// a chaos run on the synchronous fabric is exactly reproducible; on
// the concurrent tiers the fault *stream* is reproducible but its
// assignment to packets depends on goroutine scheduling. Like the
// flight recorder, an attached-but-disabled injector adds one nil
// check plus one atomic load per crossing and zero allocations.
package chaos

import (
	"sync"
	"sync/atomic"

	"elmo/internal/dataplane"
	"elmo/internal/trace"
)

// Config sets the ambient fault probabilities of an Injector. All
// probabilities are per link crossing, in [0, 1].
type Config struct {
	// Seed initializes the deterministic fault stream.
	Seed uint64
	// Drop is the ambient loss probability on every link.
	Drop float64
	// Duplicate is the probability a crossing forwards a second copy.
	Duplicate float64
	// Corrupt is the probability the wire bytes are flipped in flight.
	Corrupt float64
	// Reorder is the probability a packet is held back and released
	// after later traffic (implemented as a random delay of 1..maxDelay
	// fabric steps).
	Reorder float64
}

// maxDelay bounds the reorder delay in fabric steps (sync fabric:
// forwarding-loop iterations; live fabrics: milliseconds).
const maxDelay = 4

// endpoint keys the per-switch loss overrides.
type endpoint struct {
	tier dataplane.LinkTier
	id   int32
}

// Stats is a snapshot of the faults an Injector has fired.
type Stats struct {
	Crossings int64
	Drops     int64
	Dups      int64
	Corrupts  int64
	Delays    int64
}

// Injector implements dataplane.FaultInjector: one instance is shared
// by every switch and link of a fabric tier. Ambient probabilities
// come from Config; per-switch and per-link loss overrides model gray
// failures (0 < loss < 1) and dead devices (loss = 1), and are what
// scripted FaultPlans toggle.
type Injector struct {
	cfg Config

	enabled atomic.Bool
	state   atomic.Uint64 // splitmix64 position

	// overrides is set when any switch/link loss override or partition
	// exists, so the common path skips the lock entirely.
	overrides  atomic.Bool
	mu         sync.RWMutex
	switchLoss map[endpoint]float64
	linkLoss   map[dataplane.Link]float64
	// partitioned holds hosts currently cut off from the rest of the
	// fabric (see partition.go). Kept separate from switchLoss so Heal
	// restores exactly the partition without clearing crash overrides.
	partitioned map[int32]bool

	crossings atomic.Int64
	drops     atomic.Int64
	dups      atomic.Int64
	corrupts  atomic.Int64
	delays    atomic.Int64

	// Tracer receives CatChaos events for every fault fired; set while
	// the fabric is quiet. Nil or disabled costs one check per fault.
	Tracer trace.Recorder

	plan     FaultPlan
	planStep int
}

// New creates an Injector in the disabled state.
func New(cfg Config) *Injector {
	inj := &Injector{
		cfg:         cfg,
		switchLoss:  make(map[endpoint]float64),
		linkLoss:    make(map[dataplane.Link]float64),
		partitioned: make(map[int32]bool),
	}
	inj.state.Store(cfg.Seed)
	return inj
}

// Enable arms the injector.
func (inj *Injector) Enable() { inj.enabled.Store(true) }

// Active reports whether faults can fire: one atomic load.
func (inj *Injector) Active() bool { return inj.enabled.Load() }

// next advances the splitmix64 stream and returns the next value.
func (inj *Injector) next() uint64 {
	x := inj.state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// chance draws one value and reports true with probability p.
func (inj *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		inj.next() // keep the stream position independent of p
		return true
	}
	return float64(inj.next()>>11)/(1<<53) < p
}

// Chance draws one value from the fault stream and reports true with
// probability p — for callers (e.g. reliable-session control-loss
// hooks) that want extra faults tied to the same seed.
func (inj *Injector) Chance(p float64) bool { return inj.chance(p) }

// SetSwitchLoss sets (or, with loss <= 0, clears) a loss override on
// every link touching the switch: loss = 1 kills the device, a
// fraction models a gray failure.
func (inj *Injector) SetSwitchLoss(tier dataplane.LinkTier, id int32, loss float64) {
	inj.mu.Lock()
	if loss <= 0 {
		delete(inj.switchLoss, endpoint{tier, id})
	} else {
		inj.switchLoss[endpoint{tier, id}] = loss
	}
	inj.refreshOverridesLocked()
	inj.mu.Unlock()
}

// refreshOverridesLocked recomputes the overrides fast-path flag; the
// caller holds mu.
func (inj *Injector) refreshOverridesLocked() {
	inj.overrides.Store(len(inj.switchLoss)+len(inj.linkLoss)+len(inj.partitioned) > 0)
}

// SetLinkLoss sets (or clears) a loss override on one directed link.
func (inj *Injector) SetLinkLoss(l dataplane.Link, loss float64) {
	inj.mu.Lock()
	if loss <= 0 {
		delete(inj.linkLoss, l)
	} else {
		inj.linkLoss[l] = loss
	}
	inj.refreshOverridesLocked()
	inj.mu.Unlock()
}

// overrideLoss returns the strongest loss override touching the link.
func (inj *Injector) overrideLoss(l dataplane.Link) float64 {
	if !inj.overrides.Load() {
		return 0
	}
	inj.mu.RLock()
	loss := inj.switchLoss[endpoint{l.FromTier, l.From}]
	if o := inj.switchLoss[endpoint{l.ToTier, l.To}]; o > loss {
		loss = o
	}
	if o := inj.linkLoss[l]; o > loss {
		loss = o
	}
	// A partitioned host drops everything entering or leaving it: the
	// symmetric cut that makes split brain possible (the host is alive,
	// just unreachable — and it can't reach anyone either).
	if (l.FromTier == dataplane.LinkHost && inj.partitioned[l.From]) ||
		(l.ToTier == dataplane.LinkHost && inj.partitioned[l.To]) {
		loss = 1
	}
	inj.mu.RUnlock()
	return loss
}

// Cross returns the fault verdict for one packet crossing a link.
// Health probes (dataplane.ProbeVNI) see only the loss overrides —
// they measure device health, not ambient congestion noise — so
// detection thresholds stay crisp under background chaos.
func (inj *Injector) Cross(l dataplane.Link, vni, group uint32) dataplane.FaultVerdict {
	var v dataplane.FaultVerdict
	if !inj.enabled.Load() {
		return v
	}
	inj.crossings.Add(1)
	loss := inj.overrideLoss(l)
	probe := vni == dataplane.ProbeVNI
	if !probe && inj.cfg.Drop > loss {
		loss = inj.cfg.Drop
	}
	if inj.chance(loss) {
		v.Drop = true
		inj.drops.Add(1)
		inj.traceFault(trace.KindFaultDrop, l, vni, group, 0)
		return v
	}
	if probe {
		return v
	}
	if inj.chance(inj.cfg.Duplicate) {
		v.Duplicate = true
		inj.dups.Add(1)
		inj.traceFault(trace.KindFaultDup, l, vni, group, 0)
	}
	if inj.chance(inj.cfg.Corrupt) {
		v.Corrupt = true
		inj.corrupts.Add(1)
		inj.traceFault(trace.KindFaultCorrupt, l, vni, group, 0)
	}
	if inj.chance(inj.cfg.Reorder) {
		v.DelaySteps = 1 + int32(inj.next()%maxDelay)
		inj.delays.Add(1)
		inj.traceFault(trace.KindFaultDelay, l, vni, group, int64(v.DelaySteps))
	}
	return v
}

// CorruptWire flips 1–3 bytes of the frame in place, positions drawn
// from the fault stream.
func (inj *Injector) CorruptWire(frame []byte) {
	if len(frame) == 0 {
		return
	}
	n := 1 + int(inj.next()%3)
	for k := 0; k < n; k++ {
		pos := int(inj.next() % uint64(len(frame)))
		frame[pos] ^= byte(inj.next() | 1)
	}
}

// traceFault records one injected fault against the receiving end of
// the link.
func (inj *Injector) traceFault(kind trace.Kind, l dataplane.Link, vni, group uint32, arg int64) {
	if !trace.On(inj.Tracer, trace.CatChaos) {
		return
	}
	inj.Tracer.Record(trace.Event{
		Cat: trace.CatChaos, Kind: kind,
		Tier: traceTier(l.ToTier), Switch: l.To,
		VNI: vni, Group: group, Arg: arg,
	})
}

// traceTier maps a link tier to the trace tier enum.
func traceTier(t dataplane.LinkTier) trace.Tier {
	switch t {
	case dataplane.LinkLeaf:
		return trace.TierLeaf
	case dataplane.LinkSpine:
		return trace.TierSpine
	case dataplane.LinkCore:
		return trace.TierCore
	default:
		return trace.TierHost
	}
}

// Stats snapshots the fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Crossings: inj.crossings.Load(),
		Drops:     inj.drops.Load(),
		Dups:      inj.dups.Load(),
		Corrupts:  inj.corrupts.Load(),
		Delays:    inj.delays.Load(),
	}
}
