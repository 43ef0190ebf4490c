// Package fabric wires dataplane switches into a complete emulated
// Clos network and forwards packets through it synchronously and
// deterministically. It is the substrate for correctness tests (every
// member receives exactly one copy), for the traffic-overhead
// experiments (per-link byte accounting as headers shrink hop by hop),
// and for the unicast and overlay-multicast baselines (§5.2's
// comparison points).
package fabric

import (
	"fmt"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// Fabric is an emulated datacenter network: one hypervisor per host,
// one dataplane switch per leaf/spine/core, connected per the
// topology's port map.
type Fabric struct {
	topo   *topology.Topology
	layout header.Layout

	Hypervisors []*dataplane.Hypervisor
	Leaves      []*dataplane.NetworkSwitch
	Spines      []*dataplane.NetworkSwitch
	Cores       []*dataplane.NetworkSwitch

	failures *topology.FailureSet
	// probe is the one instrumentation seam every device of this fabric
	// reports to; the four Set* hooks each store one of its fields.
	probe *dataplane.Probe

	// send is all the memory a Send uses, the Delivery it returns
	// included, reused by the next Send (see Send).
	send procState
}

// New builds the fabric with the given per-switch s-rule capacity.
func New(topo *topology.Topology, sRuleCapacity int) *Fabric {
	f := &Fabric{
		topo:     topo,
		layout:   header.LayoutFor(topo),
		failures: topology.NewFailureSet(),
		probe:    new(dataplane.Probe),
	}
	f.Hypervisors = make([]*dataplane.Hypervisor, topo.NumHosts())
	for h := range f.Hypervisors {
		f.Hypervisors[h] = dataplane.NewHypervisor(topo, topology.HostID(h))
		f.Hypervisors[h].Probe = f.probe
	}
	f.Leaves = make([]*dataplane.NetworkSwitch, topo.NumLeaves())
	for l := range f.Leaves {
		id := topology.LeafID(l)
		sw := dataplane.NewLeaf(topo, id, sRuleCapacity)
		sw.Probe = f.probe
		pod := topo.LeafPod(id)
		sw.UpstreamAlive = func(port int) bool {
			return !f.failures.SpineFailed(f.topo.SpineAt(pod, port))
		}
		f.Leaves[l] = sw
	}
	f.Spines = make([]*dataplane.NetworkSwitch, topo.NumSpines())
	for s := range f.Spines {
		id := topology.SpineID(s)
		sw := dataplane.NewSpine(topo, id, sRuleCapacity)
		sw.Probe = f.probe
		plane := topo.SpinePlane(id)
		sw.UpstreamAlive = func(port int) bool {
			return !f.failures.CoreFailed(topology.CoreID(plane*f.topo.Config().CoresPerPlane + port))
		}
		f.Spines[s] = sw
	}
	f.Cores = make([]*dataplane.NetworkSwitch, topo.NumCores())
	for c := range f.Cores {
		f.Cores[c] = dataplane.NewCore(topo, topology.CoreID(c))
		f.Cores[c].Probe = f.probe
	}
	return f
}

// Topology returns the underlying topology.
func (f *Fabric) Topology() *topology.Topology { return f.topo }

// SetFailures replaces the fabric's failure set (typically with the
// controller's, so one set drives both control and data planes).
func (f *Fabric) SetFailures(fs *topology.FailureSet) {
	f.failures = fs
}

// The four hooks below each store one field of the fabric's probe,
// which every switch, hypervisor and forwarder of every tier reads
// (dataplane/probe.go). Call them while the fabric is quiet — the wire
// transports read the same probe from their goroutines. A nil or
// disabled instrument adds one nil check plus one atomic load per site
// and no allocation.

// SetTracer attaches a flight recorder: packet hops record which rule
// forwarded them at each tier, hosts their encap/deliver/filter, the
// fabric its losses.
func (f *Fabric) SetTracer(r trace.Recorder) { f.probe.Tracer = r }

// SetInjector attaches a fault injector; every multicast link crossing
// consults it (the unicast/overlay baselines are never faulted).
func (f *Fabric) SetInjector(inj dataplane.FaultInjector) { f.probe.Injector = inj }

// SetObserver attaches a flow observer (the ops plane); every link
// crossing and completed send reports to it. Nil detaches.
func (f *Fabric) SetObserver(o dataplane.FlowObserver) { f.probe.Observer = o }

// Metrics is the telemetry handle bundle of the whole data path:
// per-tier switch and host counters, per-send delivery accounting and
// chaos verdicts. Handles are interned at construction.
type Metrics = dataplane.Metrics

// NewMetrics registers the fabric and dataplane metric families in reg.
func NewMetrics(reg *telemetry.Registry) *Metrics { return dataplane.NewMetrics(reg) }

// SetMetrics attaches telemetry counters; nil detaches.
func (f *Fabric) SetMetrics(m *Metrics) { f.probe.Metrics = m }

// SetLegacyLeaf switches a leaf into legacy (non-Elmo) mode; pair with
// controller.Config.LegacyLeaves so the controller installs the
// group-table entries the switch needs.
func (f *Fabric) SetLegacyLeaf(l topology.LeafID) { f.Leaves[l].Legacy = true }

// SetLegacyPod switches every spine of a pod into legacy mode; pair
// with controller.Config.LegacyPods.
func (f *Fabric) SetLegacyPod(p topology.PodID) {
	first, end := f.topo.PodSpines(p)
	for s := first; s < end; s++ {
		f.Spines[s].Legacy = true
	}
}

// addr converts a controller group key to the wire address.
func addr(key controller.GroupKey) dataplane.GroupAddr {
	return dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
}

// Delivery is the outcome of one multicast send.
//
// The Delivery that Fabric.Send returns is the fabric's own, and so are
// its Received and Telemetry maps and the record slices in Telemetry:
// they stay valid until that fabric's next Send, which clears and
// refills them. A caller that keeps any part of a Delivery past that
// copies it. The baselines (SendUnicast, SendOverlay) return a Delivery
// of the caller's own.
type Delivery struct {
	// Received maps each host whose hypervisor accepted the packet to
	// the inner frame it saw.
	Received map[topology.HostID][]byte
	// Spurious counts host deliveries filtered by non-member
	// hypervisors (redundancy from shared bitmaps / default rules).
	Spurious int
	// LinkBytes is the total bytes crossing fabric links (host NICs
	// included), the traffic-overhead integrand.
	LinkBytes int
	// Links counts link transmissions (one per copy per link); with
	// LinkBytes it supports ablations such as "headers never popped".
	Links int
	// Hops counts switch traversals.
	Hops int
	// Lost counts copies dropped at failed switches.
	Lost int
	// Duplicates counts member hosts that received more than one copy
	// (possible only under multi-plane explicit upstream ports during
	// failure recovery; zero on a healthy fabric).
	Duplicates int
	// Telemetry holds the in-band telemetry records each member's copy
	// accumulated, when the sender enabled INT (§7 Monitoring).
	Telemetry map[topology.HostID][]header.INTRecord
	// FaultDrops / FaultDups / FaultCorrupts / FaultDelays count the
	// chaos-injector verdicts applied during this send (all zero when
	// no injector is active).
	FaultDrops    int
	FaultDups     int
	FaultCorrupts int
	FaultDelays   int
	// Malformed counts copies dropped because a switch could not parse
	// them — under chaos, the fate of corrupted headers.
	Malformed int
}

// event is one copy arriving at the device (tier, id), in the compact
// form a copy in flight needs: switches rewrite only the outer TTL (and
// pop the section stream), so everything else of the packet — the outer
// header and the inner frame — is the send's own and lives once in fwd.
// 32 bytes and one pointer word (TestForwardEventIsCompact).
type event struct {
	tier  dataplane.LinkTier
	ttl   byte
	noINT bool
	id    int32
	elmo  []byte
}

// heldEvent is a delayed event: released into the queue when the
// forwarding loop's iteration counter reaches due.
type heldEvent struct {
	ev  event
	due int
}

// procState is a fabric's send state: the switch scratch, the event
// queue and delay buffer, and the Delivery with the maps and the INT
// record buffer it points into. Each Send resets and refills it, so a
// warm send allocates nothing. A single scratch serves all switches of
// a send — forward is synchronous, and the scratch arena is append-only
// until the send completes, so stamped streams queued behind other
// events stay valid.
type procState struct {
	scratch dataplane.SwitchScratch
	queue   []event
	// head indexes the next event to pop; draining by index (instead
	// of re-slicing queue[1:]) keeps the backing array reusable.
	head int
	held []heldEvent

	d Delivery
	// telemetry is d.Telemetry once a copy of the send carries INT
	// records (d.Telemetry stays nil until then), and records holds the
	// records of every copy of the send, each entry of telemetry a
	// sub-slice of it.
	telemetry map[topology.HostID][]header.INTRecord
	records   []header.INTRecord
}

// reset readies ps for the next send and returns its emptied Delivery.
func (ps *procState) reset() *Delivery {
	ps.scratch.Reset()
	ps.queue = ps.queue[:0]
	ps.head = 0
	ps.held = ps.held[:0]
	clear(ps.telemetry)
	ps.records = ps.records[:0]
	received := ps.d.Received
	clear(received)
	ps.d = Delivery{Received: received}
	return &ps.d
}

// fwd is the per-send forwarding state shared with admit; the outcome
// accumulates in ps.d.
type fwd struct {
	ps         *procState
	n          int
	vni, group uint32
	// pkt is the send's one packet slot: the sender's outer header and
	// inner frame, into which each event is rebuilt (see rebuild).
	pkt dataplane.Packet
}

// rebuild makes st.pkt the packet ev carries: only what a hop changes is
// written, the base is never copied again.
func (st *fwd) rebuild(ev *event) *dataplane.Packet {
	st.pkt.Outer.TTL, st.pkt.Elmo, st.pkt.NoINT = ev.ttl, ev.elmo, ev.noINT
	return &st.pkt
}

// admit reports one link crossing of p and enqueues, in compact form,
// the copies that survive the probe's verdict — with no active
// injector, a plain enqueue. Every directed crossing of the multicast
// path funnels through here; the emitting tier has already counted the
// copy's LinkBytes, so the observer sees exactly the bytes the Delivery
// accounting sees (chaos drops included: the copy crossed the wire
// before dying). admit never retains p.
func (f *Fabric) admit(st *fwd, l dataplane.Link, p *dataplane.Packet) {
	v := f.probe.Cross(l, st.vni, st.group, p.WireSize())
	if v == (dataplane.FaultVerdict{}) {
		st.ps.queue = append(st.ps.queue, event{tier: l.ToTier, ttl: p.Outer.TTL, noINT: p.NoINT, id: l.To, elmo: p.Elmo})
		return
	}
	if v.Drop {
		st.ps.d.FaultDrops++
		return
	}
	ev := event{tier: l.ToTier, ttl: p.Outer.TTL, noINT: p.NoINT, id: l.To, elmo: p.Elmo}
	if v.Corrupt {
		st.ps.d.FaultCorrupts++
		// The Elmo stream aliases the sender flow's precomputed bytes;
		// corrupt a copy so other packets (and retransmissions) are
		// unaffected.
		ev.elmo = append([]byte(nil), ev.elmo...)
		f.probe.Corrupt(ev.elmo)
	}
	copies := 1
	if v.Duplicate {
		copies = 2
		st.ps.d.FaultDups++
		// The extra copy crosses this link too.
		st.ps.d.LinkBytes += p.WireSize()
		st.ps.d.Links++
	}
	if v.DelaySteps > 0 {
		st.ps.d.FaultDelays++
	}
	for i := 0; i < copies; i++ {
		if v.DelaySteps > 0 {
			st.ps.held = append(st.ps.held, heldEvent{ev: ev, due: st.n + int(v.DelaySteps)})
		} else {
			st.ps.queue = append(st.ps.queue, ev)
		}
	}
}

// Send encapsulates inner at the sender's hypervisor and forwards the
// packet through the fabric, returning the delivery outcome.
//
// The Delivery is the fabric's own and stays valid until the fabric's
// next Send (see Delivery): a warm send allocates nothing. Send is for
// one goroutine at a time per fabric.
func (f *Fabric) Send(sender topology.HostID, a dataplane.GroupAddr, inner []byte) (*Delivery, error) {
	pkt, err := f.Hypervisors[sender].Encap(a, inner)
	if err != nil {
		return nil, err
	}
	return f.forward(&f.send, sender, pkt)
}

// forward walks the packet through the fabric synchronously, with ps
// as its working memory. With a fault injector attached and active,
// every link crossing may drop, duplicate, corrupt, or delay the copy;
// health probes (dataplane.ProbeVNI) additionally bypass the
// declared-failure drops so the chaos monitor can observe a physically
// repaired switch that the controller still believes failed.
//
// Host copies are delivered after the walk, in queue order: a send's
// deliver and filter events follow its switch events, and a send that
// fails returns before any host sees a copy.
func (f *Fabric) forward(ps *procState, src topology.HostID, pkt dataplane.Packet) (*Delivery, error) {
	d := ps.reset()
	st := fwd{ps: ps, pkt: pkt}
	if a, ok := dataplane.GroupAddrFromOuter(pkt.Outer); ok {
		st.vni, st.group = a.VNI, a.Group
	}
	start := f.probe.SendStart()
	probe := st.vni == dataplane.ProbeVNI
	chaos := f.probe.Faulting()
	maxEvents := 4 * (f.topo.NumSwitches() + f.topo.NumHosts())
	if chaos {
		// Duplication, delay ticks, and retransmission under chaos all
		// inflate the event count of a legitimate send.
		maxEvents *= 8
	}
	// Host NIC -> leaf link.
	d.LinkBytes += pkt.WireSize()
	d.Links++
	f.admit(&st, f.uplink(src), &st.pkt)
	hostCopies := 0
	for st.n = 0; ps.head < len(ps.queue) || len(ps.held) > 0; st.n++ {
		if st.n >= maxEvents {
			return nil, fmt.Errorf("fabric: forwarding loop detected after %d events", st.n)
		}
		if len(ps.held) > 0 {
			kept := ps.held[:0]
			for _, h := range ps.held {
				if h.due <= st.n {
					ps.queue = append(ps.queue, h.ev)
				} else {
					kept = append(kept, h)
				}
			}
			ps.held = kept
			if ps.head >= len(ps.queue) {
				continue // idle tick: everything in flight is delayed
			}
		}
		ev := ps.queue[ps.head]
		ps.head++
		if ev.tier == dataplane.LinkHost {
			// Delivered after the walk; the copy still takes its tick, so
			// delayed copies come due when they always did.
			hostCopies++
			continue
		}
		d.Hops++
		ems, err := f.switchAt(ev.tier, ev.id).ProcessInto(*st.rebuild(&ev), &ps.scratch)
		if err != nil {
			if chaos {
				// A corrupted header is dropped where parsing fails,
				// not surfaced as a fabric error.
				d.Malformed++
				continue
			}
			return nil, err
		}
		for i := range ems {
			em := &ems[i]
			d.LinkBytes += em.Packet.WireSize()
			d.Links++
			l := f.NextHop(ev.tier, ev.id, em)
			if !probe && f.declaredFailed(l.ToTier, l.To) {
				d.Lost++
				f.probe.Lost(l.ToTier, l.To, &em.Packet)
				continue
			}
			f.admit(&st, l, &em.Packet)
		}
	}
	// Host copies are delivered after the walk, in queue order, into the
	// maps ps owns, cleared per send (made at this send's number of host
	// copies the first time): the queue is drained by index, so it still
	// holds every event of the send.
	if d.Received == nil {
		d.Received = make(map[topology.HostID][]byte, hostCopies)
	}
	for i := range ps.queue {
		if ev := &ps.queue[i]; ev.tier == dataplane.LinkHost {
			f.deliverHost(ps, hostCopies, topology.HostID(ev.id), st.rebuild(ev))
		}
	}
	f.probe.Sent(dataplane.SendSample{
		VNI: st.vni, Group: st.group,
		Delivered: len(d.Received),
		Lost:      d.Lost + d.Malformed + d.FaultDrops,
		Bytes:     int64(d.LinkBytes),
		Hops:      d.Hops,
		Links:     d.Links, Spurious: d.Spurious, Duplicates: d.Duplicates,
		AtFailed: d.Lost, Malformed: d.Malformed,
	}, start)
	return d, nil
}

// declaredFailed reports whether the controller believes the switch at
// (tier, id) is down; only spines and cores can be declared failed.
func (f *Fabric) declaredFailed(tier dataplane.LinkTier, id int32) bool {
	switch tier {
	case dataplane.LinkSpine:
		return f.failures.SpineFailed(topology.SpineID(id))
	case dataplane.LinkCore:
		return f.failures.CoreFailed(topology.CoreID(id))
	}
	return false
}

// deliverHost hands one copy to host h's hypervisor and records the
// outcome in ps's Delivery, decoding the copy's INT records onto the end
// of ps.records; hostCopies, the number of copies this send brought to
// hosts, sizes the telemetry map the first time a copy carries records.
func (f *Fabric) deliverHost(ps *procState, hostCopies int, h topology.HostID, pkt *dataplane.Packet) {
	d := &ps.d
	start := len(ps.records)
	inner, records, ok := f.Hypervisors[h].AppendDeliver(ps.records, *pkt)
	if !ok {
		d.Spurious++
		return
	}
	ps.records = records
	// One map operation, not a lookup and a store: a copy that adds no key
	// is a duplicate.
	n := len(d.Received)
	d.Received[h] = inner
	if len(d.Received) == n {
		d.Duplicates++
	}
	if len(records) > start {
		if ps.telemetry == nil {
			ps.telemetry = make(map[topology.HostID][]header.INTRecord, hostCopies)
		}
		d.Telemetry = ps.telemetry
		// Capped, so a caller appending to one host's path cannot write
		// over the next host's.
		d.Telemetry[h] = records[start:len(records):len(records)]
	}
}
