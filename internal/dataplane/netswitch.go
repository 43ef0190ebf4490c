package dataplane

import (
	"fmt"
	"math/bits"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// Emission is one packet copy a switch produces: the output port in
// the given direction and the (popped) packet.
type Emission struct {
	Port   int
	Up     bool
	Packet Packet
}

// DropReason classifies why a switch dropped a packet.
type DropReason int

const (
	// DropNone means not dropped.
	DropNone DropReason = iota
	// DropNoRule: no p-rule matched, no s-rule, no default.
	DropNoRule
	// DropTTL: outer TTL expired.
	DropTTL
	// DropMalformed: the section stream failed to parse.
	DropMalformed
)

// Stats counts a switch's data-plane events.
type Stats struct {
	Packets   int
	Copies    int
	Drops     map[DropReason]int
	SRuleHits int
	PRuleHits int
	Defaults  int
}

// NetworkSwitch is one physical leaf, spine, or core switch. Its only
// multicast state is the s-rule group table; everything else arrives
// in packets. Methods are not safe for concurrent use; the fabric
// serializes per switch.
type NetworkSwitch struct {
	topo   *topology.Topology
	layout header.Layout
	// tier and id address the switch as the wiring table does; the port
	// widths are the tier's, cached for the pipeline and trace rendering.
	tier               LinkTier
	id                 int32
	downWidth, upWidth int

	groupTable map[GroupAddr]bitmap.Bitmap
	capacity   int

	// UpstreamAlive reports whether upstream port i currently leads to
	// a healthy switch; the fabric wires it to the failure set so that
	// multipath hashing skips dead paths (link-state-aware ECMP).
	// A nil func treats all ports as alive.
	UpstreamAlive func(port int) bool

	// Legacy marks a switch that has not migrated to Elmo (§7): it
	// treats the Elmo section stream as opaque VXLAN payload, forwards
	// purely from its group table, and pops nothing. Downstream modern
	// switches skip the stale sections a legacy hop leaves in place.
	Legacy bool

	// Probe is where the switch reports its packet events (see
	// probe.go); the fabric that builds the switch sets it, and a
	// stand-alone switch leaves it nil and keeps only its own Stats.
	Probe *Probe

	// fence is the leadership epoch floor: installs stamped with a
	// lower epoch are rejected (see fence.go).
	fence EpochFence

	stats Stats
}

// NewLeaf creates the leaf switch for the given ID.
func NewLeaf(topo *topology.Topology, id topology.LeafID, sRuleCapacity int) *NetworkSwitch {
	return &NetworkSwitch{topo: topo, layout: header.LayoutFor(topo), tier: LinkLeaf, id: int32(id),
		downWidth: topo.LeafDownWidth(), upWidth: topo.LeafUpWidth(),
		groupTable: make(map[GroupAddr]bitmap.Bitmap), capacity: sRuleCapacity}
}

// NewSpine creates the spine switch for the given ID.
func NewSpine(topo *topology.Topology, id topology.SpineID, sRuleCapacity int) *NetworkSwitch {
	return &NetworkSwitch{topo: topo, layout: header.LayoutFor(topo), tier: LinkSpine, id: int32(id),
		downWidth: topo.SpineDownWidth(), upWidth: topo.SpineUpWidth(),
		groupTable: make(map[GroupAddr]bitmap.Bitmap), capacity: sRuleCapacity}
}

// NewCore creates the core switch for the given ID. Cores hold no
// group state in Elmo and have no upstream ports.
func NewCore(topo *topology.Topology, id topology.CoreID) *NetworkSwitch {
	return &NetworkSwitch{topo: topo, layout: header.LayoutFor(topo), tier: LinkCore, id: int32(id),
		downWidth: topo.CoreDownWidth()}
}

// Stats returns the switch's counters.
func (sw *NetworkSwitch) Stats() *Stats {
	if sw.stats.Drops == nil {
		sw.stats.Drops = make(map[DropReason]int)
	}
	return &sw.stats
}

// InstallSRuleAt adds a group-table entry on behalf of the controller
// leading at epoch. A stale epoch leaves the table untouched and
// returns a *StaleEpochError (see fence.go). It also fails when the
// table is at capacity (Fmax) — the controller should never let that
// happen, so such an error indicates a capacity-accounting bug.
func (sw *NetworkSwitch) InstallSRuleAt(epoch uint64, addr GroupAddr, ports bitmap.Bitmap) error {
	if err := sw.admit(epoch); err != nil {
		return err
	}
	if sw.tier == LinkCore {
		return fmt.Errorf("dataplane: core switches hold no s-rules")
	}
	if _, exists := sw.groupTable[addr]; !exists && len(sw.groupTable) >= sw.capacity {
		return fmt.Errorf("dataplane: %s group table full (%d entries)", sw.tier, sw.capacity)
	}
	sw.groupTable[addr] = ports.Clone()
	return nil
}

// RemoveSRuleAt deletes a group-table entry (idempotent) behind the
// epoch fence: a deposed leader must not be able to delete the
// successor's rules either.
func (sw *NetworkSwitch) RemoveSRuleAt(epoch uint64, addr GroupAddr) error {
	if err := sw.admit(epoch); err != nil {
		return err
	}
	delete(sw.groupTable, addr)
	return nil
}

// SRuleCount returns the current group-table occupancy.
func (sw *NetworkSwitch) SRuleCount() int { return len(sw.groupTable) }

// ProcessInto runs the switch pipeline on one packet using the
// caller-owned scratch and returns the emitted copies. A nil error
// with no emissions means the packet was dropped (see Stats().Drops).
// It is emission-identical to the frozen reference pipeline (asserted
// by randomized tests) and performs no heap allocation once the
// scratch is warm.
//
// The returned slice aliases s and is valid only until the next
// ProcessInto call with the same scratch. INT-stamped streams alias
// s's arena and stay valid across calls until s.Reset(); see
// SwitchScratch for the lifetime contract.
//
// p is the pipeline's one copy of the packet: every stage below takes
// it by pointer, and each emission is written in place in the scratch.
func (sw *NetworkSwitch) ProcessInto(p Packet, s *SwitchScratch) ([]Emission, error) {
	s.emissions = s.emissions[:0]
	if p.Outer.TTL <= 1 {
		sw.Probe.dropped(sw, &p, DropTTL)
		return nil, nil
	}
	p.Outer.TTL--
	var err error
	switch {
	case sw.Legacy:
		err = sw.legacyInto(&p, s)
	case sw.tier == LinkLeaf:
		err = sw.leafInto(&p, s)
	case sw.tier == LinkSpine:
		err = sw.spineInto(&p, s)
	case sw.tier == LinkCore:
		err = sw.coreInto(&p, s)
	}
	if err != nil {
		sw.Probe.dropped(sw, &p, DropMalformed)
		return nil, err
	}
	if len(s.emissions) == 0 {
		return nil, nil
	}
	return s.emissions, nil
}

// emit appends one copy of p carrying the stream elmo, written field by
// field into the scratch slot so no Packet or Emission temporary is
// built and copied.
func (s *SwitchScratch) emit(port int, up bool, p *Packet, elmo []byte) {
	n := len(s.emissions)
	if n == cap(s.emissions) {
		s.emissions = append(s.emissions, Emission{})
	}
	s.emissions = s.emissions[:n+1]
	em := &s.emissions[n]
	em.Port, em.Up = port, up
	em.Packet.Outer = p.Outer
	em.Packet.Elmo = elmo
	em.Packet.Inner = p.Inner
	em.Packet.NoINT = p.NoINT
}

// appendPortEmissions fans p, carrying elmo, out to every set bit of bm
// in ascending port order. It iterates words directly instead of using
// ForEach: the closure there captures the growing emission slice and
// escapes, costing an allocation per packet.
func appendPortEmissions(s *SwitchScratch, bm bitmap.Bitmap, up bool, p *Packet, elmo []byte) {
	for wi, w := range bm.Words() {
		base := wi * 64
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			s.emit(base+tz, up, p, elmo)
			w &^= 1 << uint(tz)
		}
	}
}

// legacyInto forwards an Elmo packet from the group table alone — the
// paper's tested legacy-switch behavior: the switch was configured to
// consult its multicast group table when it sees an Elmo packet,
// treating the section stream as opaque payload (never popped).
func (sw *NetworkSwitch) legacyInto(p *Packet, s *SwitchScratch) error {
	if sw.tier == LinkCore {
		return fmt.Errorf("dataplane: legacy cores are not modeled")
	}
	addr, ok := GroupAddrFromOuter(p.Outer)
	if !ok {
		sw.Probe.dropped(sw, p, DropNoRule)
		return nil
	}
	ports, ok := sw.groupTable[addr]
	if !ok {
		sw.Probe.dropped(sw, p, DropNoRule)
		return nil
	}
	appendPortEmissions(s, ports, false, p, p.Elmo)
	sw.Probe.forwarded(sw, p, trace.RuleSRule, s.emissions)
	return nil
}

// leafInto handles both directions: packets from hosts carry a u-leaf
// section; packets from spines carry (at most) a d-leaf section.
func (sw *NetworkSwitch) leafInto(p *Packet, s *SwitchScratch) error {
	tag, err := header.PeekTag(p.Elmo)
	if err != nil {
		return err
	}
	if tag == header.TagULeaf {
		rest, err := header.ConsumeUpstreamInto(sw.layout, header.TagULeaf, p.Elmo, &s.uRule)
		if err != nil {
			return err
		}
		if !p.NoINT {
			rest = sw.stampInto(rest, p.Outer.TTL, s)
		}
		// Host deliveries: strip the remaining p-rules — the egress
		// invalidates all p-rules toward hosts (§4.1). The stripped
		// stream is identical for every port, so find it once.
		appendPortEmissions(s, s.uRule.Down, false, p, sw.hostStream(p, rest))
		sw.upstreamCopiesInto(p, rest, &s.uRule, s)
		sw.Probe.forwarded(sw, p, trace.RulePRule, s.emissions)
		return nil
	}
	// Downstream: match our own leaf ID if a d-leaf section is present;
	// otherwise consult the group table directly.
	rest, err := sw.downstreamMatchInto(header.TagDLeaf, uint16(sw.id), p.Elmo, &s.match)
	if err != nil {
		return err
	}
	ports, rule, ok := sw.resolve(&s.match, &p.Outer)
	if !ok {
		sw.Probe.dropped(sw, p, DropNoRule)
		return nil
	}
	if !p.NoINT {
		rest = sw.stampInto(rest, p.Outer.TTL, s)
	}
	appendPortEmissions(s, ports, false, p, sw.hostStream(p, rest))
	sw.Probe.forwarded(sw, p, rule, s.emissions)
	return nil
}

// spineInto handles the upstream turn (u-spine section) and the
// downstream fan-out (d-spine section keyed by pod).
func (sw *NetworkSwitch) spineInto(p *Packet, s *SwitchScratch) error {
	tag, err := header.PeekTag(p.Elmo)
	if err != nil {
		return err
	}
	if tag == header.TagUSpine {
		rest, err := header.ConsumeUpstreamInto(sw.layout, header.TagUSpine, p.Elmo, &s.uRule)
		if err != nil {
			return err
		}
		if !p.NoINT {
			rest = sw.stampInto(rest, p.Outer.TTL, s)
		}
		if !s.uRule.Down.IsEmpty() {
			// Down-copies into our own pod skip ahead to the d-leaf
			// section: the core and d-spine sections are not for them.
			downStream, _, err := header.Seek(sw.layout, rest, header.TagDLeaf)
			if err != nil {
				return err
			}
			appendPortEmissions(s, s.uRule.Down, false, p, downStream)
		}
		sw.upstreamCopiesInto(p, rest, &s.uRule, s)
		sw.Probe.forwarded(sw, p, trace.RulePRule, s.emissions)
		return nil
	}
	// Downstream from core: match our pod in the d-spine section.
	pod := sw.topo.SpinePod(topology.SpineID(sw.id))
	rest, err := sw.downstreamMatchInto(header.TagDSpine, uint16(pod), p.Elmo, &s.match)
	if err != nil {
		return err
	}
	ports, rule, ok := sw.resolve(&s.match, &p.Outer)
	if !ok {
		sw.Probe.dropped(sw, p, DropNoRule)
		return nil
	}
	if !p.NoINT {
		rest = sw.stampInto(rest, p.Outer.TTL, s)
	}
	appendPortEmissions(s, ports, false, p, rest)
	sw.Probe.forwarded(sw, p, rule, s.emissions)
	return nil
}

// coreInto forwards one copy to each pod named in the core bitmap,
// popping the core section.
func (sw *NetworkSwitch) coreInto(p *Packet, s *SwitchScratch) error {
	rest, err := header.ConsumeCoreInto(sw.layout, p.Elmo, &s.pods)
	if err != nil {
		return err
	}
	if !p.NoINT {
		rest = sw.stampInto(rest, p.Outer.TTL, s)
	}
	appendPortEmissions(s, s.pods, false, p, rest)
	sw.Probe.forwarded(sw, p, trace.RulePRule, s.emissions)
	return nil
}

// upstreamCopiesInto emits the upward copies of an upstream rule: one
// ECMP-chosen port under multipathing, or every explicit Up port.
func (sw *NetworkSwitch) upstreamCopiesInto(p *Packet, rest []byte, rule *header.UpstreamRule, s *SwitchScratch) {
	if rule.Multipath {
		if port, ok := sw.pickUpstreamInto(&p.Outer, s); ok {
			s.emit(port, true, p, rest)
		}
		return
	}
	appendPortEmissions(s, rule.Up, true, p, rest)
}

// pickUpstreamInto hashes the flow over the alive upstream ports,
// collected into the scratch alive slice.
func (sw *NetworkSwitch) pickUpstreamInto(f *header.OuterFields, s *SwitchScratch) (int, bool) {
	alive := s.alive[:0]
	for i := 0; i < sw.upWidth; i++ {
		if sw.UpstreamAlive == nil || sw.UpstreamAlive(i) {
			alive = append(alive, i)
		}
	}
	s.alive = alive
	if len(alive) == 0 {
		return 0, false
	}
	return alive[ECMPHash(*f, ecmpSalt(sw.tier, sw.id))%uint32(len(alive))], true
}

// downstreamMatchInto seeks the section tagged tag — stepping over any
// stale earlier section a legacy hop left in place — and scans it for
// id into m, returning the stream after it. When the section is absent
// (already popped, or every switch of the layer is on s-rules) it leaves
// m empty, so the caller falls through to the group table, and the
// stream where the section would have been, for the next tier.
func (sw *NetworkSwitch) downstreamMatchInto(tag byte, id uint16, stream []byte, m *header.DownstreamMatch) ([]byte, error) {
	at, found, err := header.Seek(sw.layout, stream, tag)
	if err != nil || !found {
		m.Matched, m.HasDefault = false, false
		return at, err
	}
	return header.ConsumeDownstreamInto(sw.layout, tag, id, at, m)
}

// resolve implements the §4.1 ingress control flow: matched p-rule
// bitmap, else s-rule group table, else default p-rule. The returned
// RuleKind records which stage matched, for the flight recorder.
func (sw *NetworkSwitch) resolve(m *header.DownstreamMatch, outer *header.OuterFields) (bitmap.Bitmap, trace.RuleKind, bool) {
	if m.Matched {
		return m.Bitmap, trace.RulePRule, true
	}
	if addr, ok := GroupAddrFromOuter(*outer); ok {
		if ports, ok := sw.groupTable[addr]; ok {
			return ports, trace.RuleSRule, true
		}
	}
	if m.HasDefault {
		return m.Default, trace.RuleDefault, true
	}
	return bitmap.Bitmap{}, trace.RuleNone, false
}

// intRecord builds this switch's INT record; the remaining TTL serves
// as the per-hop metadata (§7 Monitoring). header.INTTier* and LinkTier
// number the switch tiers alike (TestLinkTierMatchesTraceTier).
func (sw *NetworkSwitch) intRecord(ttl byte) header.INTRecord {
	return header.INTRecord{Tier: uint8(sw.tier), ID: uint16(sw.id), Meta: ttl}
}

// stampInto appends this switch's INT record when the stream carries a
// telemetry section, writing the rewritten stream into the scratch
// arena (append-only, so streams stamped for earlier packets in the
// batch stay valid). Streams without an INT section pass through
// untouched and unallocated; malformed streams are returned unchanged
// for the downstream parser to reject.
func (sw *NetworkSwitch) stampInto(stream []byte, ttl byte, s *SwitchScratch) []byte {
	start := len(s.arena)
	arena, ok, err := header.AppendINTRecordTo(sw.layout, s.arena, stream, sw.intRecord(ttl))
	if err != nil || !ok {
		return stream
	}
	s.arena = arena
	// Full slice expression: an append to the returned stream must
	// reallocate rather than grow into later arena bytes.
	return s.arena[start:len(s.arena):len(s.arena)]
}

// hostStream strips the p-rule sections from stream for host delivery,
// preserving a telemetry section if present (the host's hypervisor is
// the INT sink).
func (sw *NetworkSwitch) hostStream(p *Packet, stream []byte) []byte {
	if p.NoINT {
		// No INT section can exist, so the scan below would always land
		// on TagEnd; emptyStream is that same single-byte stream.
		return emptyStream
	}
	rest, found, _ := header.Seek(sw.layout, stream, header.TagINT)
	if !found {
		return emptyStream
	}
	return rest
}

var emptyStream = []byte{header.TagEnd}
