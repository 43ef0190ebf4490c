package dataplane

import (
	"time"

	"elmo/internal/trace"
)

// Probe is the data path's one instrumentation seam. A fabric creates
// one and every switch and hypervisor it builds points to it, so
// attaching an instrument is a single store into one of these four
// fields (do it while the fabric is quiet) and every tier — the sync
// forwarder, the wire engine over channels or sockets, the baselines —
// reports through the same methods.
//
// The probe owns two things nothing else on the data path knows: what
// happens when a copy crosses a link (Cross) and how a device event is
// reported (one method per event, each updating the device's own
// stats, the telemetry handles and the flight recorder in one place).
//
// Every method is safe on a nil receiver — a stand-alone device has no
// probe — and that nil check plus the instrument's own Enabled/Active
// load is the whole disabled-path guard: a nil or disabled instrument
// costs a branch or an atomic load per site and never allocates.
type Probe struct {
	Tracer   trace.Recorder
	Metrics  *Metrics
	Observer FlowObserver
	Injector FaultInjector
}

// ---- link crossings ----

// Observe reports size bytes crossing l without consulting the
// injector: the half of Cross the unicast/overlay baselines use, which
// are observed on the same links as multicast but never faulted (the
// reliable layer uses them as its fault-free control channel).
func (p *Probe) Observe(l Link, size int) {
	if p.observing() {
		p.Observer.ObserveLink(l, size)
	}
}

func (p *Probe) observing() bool {
	return p != nil && p.Observer != nil && p.Observer.Active()
}

// Faulting reports whether an injector is attached and armed; the sync
// forwarder sizes its loop budget and tolerates unparseable headers by
// it.
func (p *Probe) Faulting() bool {
	return p != nil && p.Injector != nil && p.Injector.Active()
}

// Cross reports one copy of size bytes crossing l and returns the
// injector's verdict, which the caller applies to its own
// representation of the copy (the zero verdict means deliver it
// untouched). The crossing is observed, the verdict is counted, and
// the second crossing of a duplicate is observed here too. Drop wins:
// a dropped copy carries no other verdict.
func (p *Probe) Cross(l Link, vni, group uint32, size int) FaultVerdict {
	p.Observe(l, size)
	if !p.Faulting() {
		return FaultVerdict{}
	}
	v := p.Injector.Cross(l, vni, group)
	if v.Drop {
		v = FaultVerdict{Drop: true}
	}
	if v.Duplicate {
		p.Observe(l, size)
	}
	if m := p.Metrics; m != nil {
		for i, hit := range [...]bool{v.Drop, v.Duplicate, v.Corrupt, v.DelaySteps > 0} {
			if hit {
				m.verdicts[i].Inc()
			}
		}
	}
	return v
}

// Corrupt applies a Corrupt verdict to the caller's bytes in place.
func (p *Probe) Corrupt(frame []byte) { p.Injector.CorruptWire(frame) }

// ---- sends ----

// SendStart returns the send's start time when an observer will want
// its duration, else the zero time (no clock read on the bare path).
func (p *Probe) SendStart() time.Time {
	if p.observing() {
		return time.Now()
	}
	return time.Time{}
}

// Sent reports one completed synchronous send: the per-send counters
// take its totals, and the observer — if SendStart saw one — gets the
// sample with its duration.
func (p *Probe) Sent(s SendSample, start time.Time) {
	if p == nil {
		return
	}
	if m := p.Metrics; m != nil {
		m.linkBytes.Add(s.Bytes)
		m.links.Add(int64(s.Links))
		m.hops.Add(int64(s.Hops))
		m.lost.Add(int64(s.AtFailed))
		m.spurious.Add(int64(s.Spurious))
		m.duplicates.Add(int64(s.Duplicates))
		m.malformed.Add(int64(s.Malformed))
	}
	if !start.IsZero() {
		s.Nanos = time.Since(start).Nanoseconds()
		p.Observer.ObserveSend(s)
	}
}

// ---- switch events ----

// forwarded reports a packet the switch forwarded by rule, with the
// copies it emitted and the header bytes it consumed.
func (p *Probe) forwarded(sw *NetworkSwitch, pkt *Packet, rule trace.RuleKind, out []Emission) {
	st := &sw.stats
	st.Packets++
	st.Copies += len(out)
	switch rule {
	case trace.RulePRule:
		st.PRuleHits++
	case trace.RuleSRule:
		st.SRuleHits++
	case trace.RuleDefault:
		st.Defaults++
	}
	if p == nil {
		return
	}
	popped := 0
	if len(out) > 0 {
		popped = len(pkt.Elmo) - len(out[0].Packet.Elmo)
	}
	if m := p.Metrics; m != nil {
		c := &m.tiers[sw.tier]
		c.packets.Inc()
		c.copies.Add(int64(len(out)))
		c.ruleHits[rule].Inc()
		if popped > 0 {
			// Egress stripping included: invalidated p-rules count as
			// consumed header.
			c.popped.Inc()
			c.headerBytes.Add(int64(popped))
		}
	}
	if !trace.On(p.Tracer, trace.CatHop) {
		return
	}
	ev := sw.hopEvent(trace.KindHop, pkt)
	ev.Rule, ev.Popped = rule, int32(popped)
	for _, em := range out {
		if em.Up {
			ev.UpPorts.Set(em.Port)
		} else {
			ev.Ports.Set(em.Port)
		}
	}
	p.Tracer.Record(ev)
}

// dropped reports a packet the switch dropped, with the reason in the
// event's Arg.
func (p *Probe) dropped(sw *NetworkSwitch, pkt *Packet, reason DropReason) {
	st := sw.Stats()
	st.Packets++
	st.Drops[reason]++
	if p == nil {
		return
	}
	if m := p.Metrics; m != nil {
		c := &m.tiers[sw.tier]
		c.packets.Inc()
		c.drops[reason].Inc()
	}
	if trace.On(p.Tracer, trace.CatHop) {
		ev := sw.hopEvent(trace.KindDrop, pkt)
		ev.Arg = int64(reason)
		p.Tracer.Record(ev)
	}
}

// hopEvent starts a hop-category event with the switch's identity, its
// port widths (for rendering) and the packet's group.
func (sw *NetworkSwitch) hopEvent(kind trace.Kind, pkt *Packet) trace.Event {
	ev := trace.Event{
		Cat: trace.CatHop, Kind: kind, Tier: trace.Tier(sw.tier), Switch: sw.id,
		PortWidth: uint16(sw.downWidth), UpWidth: uint16(sw.upWidth),
	}
	if addr, ok := GroupAddrFromOuter(pkt.Outer); ok {
		ev.VNI, ev.Group = addr.VNI, addr.Group
	}
	return ev
}

// ---- hypervisor events ----

// encap reports one packet encapsulated with streamLen header bytes.
func (p *Probe) encap(hv *Hypervisor, addr GroupAddr, streamLen int) {
	if p == nil {
		return
	}
	if m := p.Metrics; m != nil {
		m.encapsulated.Inc()
		m.headerBytesAdded.Add(int64(streamLen))
	}
	p.record(trace.CatHost, trace.KindEncap, LinkHost, int32(hv.host), addr, int64(streamLen))
}

// deliver reports one packet accepted for a local member VM.
func (p *Probe) deliver(hv *Hypervisor, addr GroupAddr) {
	if p == nil {
		return
	}
	if m := p.Metrics; m != nil {
		m.delivered.Inc()
	}
	p.record(trace.CatHost, trace.KindDeliver, LinkHost, int32(hv.host), addr, 0)
}

// filter reports one spurious packet discarded on receive.
func (p *Probe) filter(hv *Hypervisor, addr GroupAddr) {
	if p == nil {
		return
	}
	if m := p.Metrics; m != nil {
		m.filtered.Inc()
	}
	p.record(trace.CatHost, trace.KindFilter, LinkHost, int32(hv.host), addr, 0)
}

// record writes one event about device (tier, id) and a group, if the
// category is being recorded. trace.Tier and LinkTier enumerate host,
// leaf, spine, core in the same order (TestLinkTierMatchesTraceTier
// pins it).
func (p *Probe) record(cat trace.Category, kind trace.Kind, tier LinkTier, id int32, addr GroupAddr, arg int64) {
	if trace.On(p.Tracer, cat) {
		p.Tracer.Record(trace.Event{
			Cat: cat, Kind: kind, Tier: trace.Tier(tier),
			Switch: id, VNI: addr.VNI, Group: addr.Group, Arg: arg,
		})
	}
}

// fenced reports one controller message a device of the given tier
// rejected for its stale epoch (the fence keeps the device's own count).
func (p *Probe) fenced(tier LinkTier) {
	if p != nil && p.Metrics != nil {
		p.Metrics.tiers[tier].fenced.Inc()
	}
}

// ---- fabric events ----

// Lost reports a copy the fabric dropped because its next device
// (tier, id) is declared failed.
func (p *Probe) Lost(tier LinkTier, id int32, pkt *Packet) {
	if p != nil {
		addr, _ := GroupAddrFromOuter(pkt.Outer)
		p.record(trace.CatFabric, trace.KindDrop, tier, id, addr, 0)
	}
}

// Malformed reports a frame a wire-tier device could not parse.
func (p *Probe) Malformed() {
	if p == nil {
		return
	}
	if m := p.Metrics; m != nil {
		m.WireMalformed.Inc()
	}
	p.record(trace.CatFabric, trace.KindMalformed, LinkHost, 0, GroupAddr{}, 0)
}

// HostDrop reports a frame discarded at a host's full delivery queue.
func (p *Probe) HostDrop(host int32, addr GroupAddr) {
	if p == nil {
		return
	}
	if m := p.Metrics; m != nil {
		m.HostQueueDrops.Inc()
	}
	p.record(trace.CatFabric, trace.KindHostDrop, LinkHost, host, addr, 0)
}
