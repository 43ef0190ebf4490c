package dataplane

import (
	"fmt"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// This file freezes the original allocating Process implementation as
// ReferenceProcess. It is the equivalence oracle for the scratch-based
// fast path (ProcessInto) — the same role cluster.ReferenceAssign plays
// for the encode path. Do not optimize it.

// ReferenceProcess runs the original (allocating) switch pipeline on
// one packet. It is emission-identical to Process/ProcessInto; tests
// assert this on randomized traffic.
func (sw *NetworkSwitch) ReferenceProcess(p Packet) ([]Emission, error) {
	if p.Outer.TTL <= 1 {
		sw.Probe.dropped(sw, &p, DropTTL)
		return nil, nil
	}
	p.Outer.TTL--
	var out []Emission
	var err error
	switch {
	case sw.Legacy:
		out, err = sw.refProcessLegacy(p)
	case sw.tier == LinkLeaf:
		out, err = sw.refProcessLeaf(p)
	case sw.tier == LinkSpine:
		out, err = sw.refProcessSpine(p)
	case sw.tier == LinkCore:
		out, err = sw.refProcessCore(p)
	}
	if err != nil {
		sw.Probe.dropped(sw, &p, DropMalformed)
		return nil, err
	}
	return out, nil
}

// refProcessLegacy forwards an Elmo packet from the group table alone —
// the paper's tested legacy-switch behavior: the switch was configured
// to consult its multicast group table when it sees an Elmo packet,
// treating the section stream as opaque payload (never popped).
func (sw *NetworkSwitch) refProcessLegacy(p Packet) ([]Emission, error) {
	if sw.tier == LinkCore {
		return nil, fmt.Errorf("dataplane: legacy cores are not modeled")
	}
	addr, ok := GroupAddrFromOuter(p.Outer)
	if !ok {
		sw.Probe.dropped(sw, &p, DropNoRule)
		return nil, nil
	}
	ports, ok := sw.groupTable[addr]
	if !ok {
		sw.Probe.dropped(sw, &p, DropNoRule)
		return nil, nil
	}
	var out []Emission
	ports.ForEach(func(port int) {
		out = append(out, Emission{Port: port, Packet: p})
	})
	sw.Probe.forwarded(sw, &p, trace.RuleSRule, out)
	return out, nil
}

// refProcessLeaf handles both directions: packets from hosts carry a
// u-leaf section; packets from spines carry (at most) a d-leaf section.
func (sw *NetworkSwitch) refProcessLeaf(p Packet) ([]Emission, error) {
	tag, err := header.PeekTag(p.Elmo)
	if err != nil {
		return nil, err
	}
	if tag == header.TagULeaf {
		var rule header.UpstreamRule
		rest, err := header.ConsumeUpstreamInto(sw.layout, header.TagULeaf, p.Elmo, &rule)
		if err != nil {
			return nil, err
		}
		rest = sw.refStamp(rest, p.Outer.TTL)
		var out []Emission
		// Host deliveries: strip the remaining p-rules — the egress
		// invalidates all p-rules toward hosts (§4.1).
		rule.Down.ForEach(func(port int) {
			out = append(out, Emission{Port: port, Packet: sw.refHostCopy(p, rest)})
		})
		out = append(out, sw.refUpstreamCopies(p, rest, rule, sw.topo.LeafUpWidth())...)
		sw.Probe.forwarded(sw, &p, trace.RulePRule, out)
		return out, nil
	}
	// Downstream: skip any stale earlier sections (a legacy hop pops
	// nothing), then match our own leaf ID if a d-leaf section is
	// present; otherwise consult the group table directly.
	stream, err := refStreamFrom(sw.layout, p.Elmo, header.TagDLeaf)
	if err != nil {
		return nil, err
	}
	tag, err = header.PeekTag(stream)
	if err != nil {
		return nil, err
	}
	m, _, err := sw.refDownstreamMatch(header.TagDLeaf, uint16(sw.id), stream, tag)
	if err != nil {
		return nil, err
	}
	ports, rule, ok := sw.resolve(&m, &p.Outer)
	if !ok {
		sw.Probe.dropped(sw, &p, DropNoRule)
		return nil, nil
	}
	stamped := sw.refStamp(stream, p.Outer.TTL)
	var out []Emission
	ports.ForEach(func(port int) {
		out = append(out, Emission{Port: port, Packet: sw.refHostCopy(p, stamped)})
	})
	sw.Probe.forwarded(sw, &p, rule, out)
	return out, nil
}

// refProcessSpine handles the upstream turn (u-spine section) and the
// downstream fan-out (d-spine section keyed by pod).
func (sw *NetworkSwitch) refProcessSpine(p Packet) ([]Emission, error) {
	tag, err := header.PeekTag(p.Elmo)
	if err != nil {
		return nil, err
	}
	if tag == header.TagUSpine {
		var rule header.UpstreamRule
		rest, err := header.ConsumeUpstreamInto(sw.layout, header.TagUSpine, p.Elmo, &rule)
		if err != nil {
			return nil, err
		}
		rest = sw.refStamp(rest, p.Outer.TTL)
		var out []Emission
		if !rule.Down.IsEmpty() {
			// Down-copies into our own pod skip ahead to the d-leaf
			// section: the core and d-spine sections are not for them.
			downStream, err := refStreamFrom(sw.layout, rest, header.TagDLeaf)
			if err != nil {
				return nil, err
			}
			rule.Down.ForEach(func(port int) {
				out = append(out, Emission{Port: port, Packet: Packet{Outer: p.Outer, Elmo: downStream, Inner: p.Inner}})
			})
		}
		out = append(out, sw.refUpstreamCopies(p, rest, rule, sw.topo.SpineUpWidth())...)
		sw.Probe.forwarded(sw, &p, trace.RulePRule, out)
		return out, nil
	}
	// Downstream from core: skip stale sections, then match our pod in
	// the d-spine section.
	stream, err := refStreamFrom(sw.layout, p.Elmo, header.TagDSpine)
	if err != nil {
		return nil, err
	}
	tag, err = header.PeekTag(stream)
	if err != nil {
		return nil, err
	}
	pod := sw.topo.SpinePod(topology.SpineID(sw.id))
	m, rest, err := sw.refDownstreamMatch(header.TagDSpine, uint16(pod), stream, tag)
	if err != nil {
		return nil, err
	}
	ports, rule, ok := sw.resolve(&m, &p.Outer)
	if !ok {
		sw.Probe.dropped(sw, &p, DropNoRule)
		return nil, nil
	}
	rest = sw.refStamp(rest, p.Outer.TTL)
	var out []Emission
	ports.ForEach(func(port int) {
		out = append(out, Emission{Port: port, Packet: Packet{Outer: p.Outer, Elmo: rest, Inner: p.Inner}})
	})
	sw.Probe.forwarded(sw, &p, rule, out)
	return out, nil
}

// refProcessCore forwards one copy to each pod named in the core
// bitmap, popping the core section.
func (sw *NetworkSwitch) refProcessCore(p Packet) ([]Emission, error) {
	var pods bitmap.Bitmap
	rest, err := header.ConsumeCoreInto(sw.layout, p.Elmo, &pods)
	if err != nil {
		return nil, err
	}
	rest = sw.refStamp(rest, p.Outer.TTL)
	var out []Emission
	pods.ForEach(func(pod int) {
		out = append(out, Emission{Port: pod, Packet: Packet{Outer: p.Outer, Elmo: rest, Inner: p.Inner}})
	})
	sw.Probe.forwarded(sw, &p, trace.RulePRule, out)
	return out, nil
}

// refUpstreamCopies emits the upward copies of an upstream rule: one
// ECMP-chosen port under multipathing, or every explicit Up port.
func (sw *NetworkSwitch) refUpstreamCopies(p Packet, rest []byte, rule header.UpstreamRule, upWidth int) []Emission {
	var out []Emission
	next := Packet{Outer: p.Outer, Elmo: rest, Inner: p.Inner}
	if rule.Multipath {
		if port, ok := sw.refPickUpstream(p.Outer, upWidth); ok {
			out = append(out, Emission{Port: port, Up: true, Packet: next})
		}
		return out
	}
	rule.Up.ForEach(func(port int) {
		out = append(out, Emission{Port: port, Up: true, Packet: next})
	})
	return out
}

// refPickUpstream hashes the flow over the alive upstream ports.
func (sw *NetworkSwitch) refPickUpstream(f header.OuterFields, width int) (int, bool) {
	alive := make([]int, 0, width)
	for i := 0; i < width; i++ {
		if sw.UpstreamAlive == nil || sw.UpstreamAlive(i) {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return 0, false
	}
	return alive[ECMPHash(f, ecmpSalt(sw.tier, sw.id))%uint32(len(alive))], true
}

// refDownstreamMatch consumes the section with wantTag if present; when
// the front tag is beyond it (already popped or never encoded), it
// returns an empty match so the caller falls through to the s-rule
// table, leaving the stream untouched for the next tier.
func (sw *NetworkSwitch) refDownstreamMatch(wantTag byte, id uint16, stream []byte, frontTag byte) (header.DownstreamMatch, []byte, error) {
	if frontTag == wantTag {
		var m header.DownstreamMatch
		rest, err := header.ConsumeDownstreamInto(sw.layout, wantTag, id, stream, &m)
		return m, rest, err
	}
	// The section may legitimately be absent (all switches covered by
	// s-rules): the stream then starts at a later valid tag or TagEnd.
	// (The original stopped at TagDLeaf and so dropped a packet whose INT
	// section followed an absent downstream section; that was the bug the
	// fast path no longer has, not behaviour to freeze.)
	if frontTag == header.TagEnd || (frontTag > wantTag && frontTag <= header.TagINT) {
		return header.DownstreamMatch{}, stream, nil
	}
	return header.DownstreamMatch{}, nil, fmt.Errorf("dataplane: %s switch saw unexpected tag %#x", sw.tier, frontTag)
}

// refHostCopy strips the p-rule sections for host delivery, preserving
// a telemetry section if present. It is the original hostCopy, kept
// scanning unconditionally: the fast-path hostStream now shortcuts on the
// NoINT hint, and the frozen baseline must not inherit that speedup.
func (sw *NetworkSwitch) refHostCopy(p Packet, stream []byte) Packet {
	rest, err := refStreamFrom(sw.layout, stream, header.TagINT)
	if err != nil || len(rest) == 0 {
		rest = emptyStream
	}
	return Packet{Outer: p.Outer, Elmo: rest, Inner: p.Inner}
}

// refStamp appends this switch's INT record when the stream carries a
// telemetry section (§7 Monitoring); the remaining TTL serves as the
// per-hop metadata. Streams without an INT section pass through
// untouched and unallocated.
func (sw *NetworkSwitch) refStamp(stream []byte, ttl byte) []byte {
	out, ok, err := header.AppendINTRecordTo(sw.layout, nil, stream, sw.intRecord(ttl))
	if err != nil || !ok {
		return stream
	}
	return out
}

// refStreamFrom is the original section walk, frozen with the rest of
// the reference pipeline: it advances the stream to the section with the
// given tag (or to TagEnd if that section is absent).
func refStreamFrom(l header.Layout, stream []byte, tag byte) ([]byte, error) {
	for {
		front, err := header.PeekTag(stream)
		if err != nil {
			return nil, err
		}
		if front == tag || front == header.TagEnd || front > tag {
			return stream, nil
		}
		_, rest, err := header.SkipSection(l, stream)
		if err != nil {
			return nil, err
		}
		stream = rest
	}
}
