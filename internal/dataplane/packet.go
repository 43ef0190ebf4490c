// Package dataplane implements Elmo's switch data planes in software:
// the hypervisor switch that encapsulates tenant multicast packets with
// a precomputed Elmo header (paper §4.2), and the network switch
// pipeline that parses p-rules with match-and-set semantics, falls back
// to s-rule group tables and default p-rules, replicates packets, and
// pops consumed header sections per hop (paper §4.1).
//
// The pipeline semantics mirror the paper's P4 programs: the parser
// scans the section stream and stops at the first matching p-rule; the
// ingress control checks matched-flag → s-rule table → default bitmap;
// the queue manager replicates to the port bitmap; the egress deparser
// invalidates the sections the next layer no longer needs.
package dataplane

import (
	"fmt"

	"elmo/internal/header"
	"elmo/internal/topology"
)

// GroupAddr identifies a group on the wire: the packet's VNI plus the
// group index recovered from the 239/8 destination IP. It is the s-rule
// group-table key.
type GroupAddr struct {
	VNI   uint32
	Group uint32
}

// GroupAddrFromOuter extracts the group address from outer fields; ok
// is false for non-multicast destinations.
func GroupAddrFromOuter(f header.OuterFields) (GroupAddr, bool) {
	g, ok := header.GroupFromIP(f.DstIP)
	if !ok {
		return GroupAddr{}, false
	}
	return GroupAddr{VNI: f.VNI, Group: g}, true
}

// Packet is a fabric packet in flight. Outer fields are kept decoded
// (switches rewrite only TTL), the Elmo section stream is a byte slice
// popped by pure re-slicing per hop, and the inner frame is opaque.
type Packet struct {
	Outer header.OuterFields
	// Elmo is the section stream (ending in TagEnd). A nil or
	// one-byte stream means no source routing remains.
	Elmo  []byte
	Inner []byte
	// NoINT is a provenance hint: true only when the stream is known
	// to carry no INT section. Encap and Unmarshal set it (both walk
	// the stream anyway), and emissions inherit it, so the forwarding
	// fast path can skip the per-hop structural scan that stamping
	// and host-copy stripping otherwise need. The zero value means
	// "unknown" and always falls back to scanning, so hand-built
	// packets stay correct.
	NoINT bool
}

// WireSize returns the bytes this packet occupies on a link — the
// quantity the traffic-overhead experiments integrate per hop. Headers
// shrink as sections pop, so WireSize decreases along the path.
func (p *Packet) WireSize() int {
	return header.OuterSize + len(p.Elmo) + len(p.Inner)
}

// Marshal serializes the packet to wire bytes (used by the live fabric
// and the examples; the simulation harness works on the struct form).
func (p *Packet) Marshal(dst []byte) ([]byte, error) {
	dst, err := header.AppendOuter(dst, p.Outer, len(p.Elmo)+len(p.Inner))
	if err != nil {
		return dst, err
	}
	dst = append(dst, p.Elmo...)
	dst = append(dst, p.Inner...)
	return dst, nil
}

// Unmarshal parses wire bytes into a packet. The Elmo stream length is
// determined structurally under the layout.
func Unmarshal(l header.Layout, data []byte) (Packet, error) {
	var p Packet
	outer, payload, err := header.ParseOuter(data)
	if err != nil {
		return p, err
	}
	p.Outer = outer
	if outer.ElmoVersion == 0 {
		p.Inner = payload
		p.NoINT = true
		return p, nil
	}
	if outer.ElmoVersion != header.Version {
		return p, fmt.Errorf("dataplane: unsupported Elmo version %d", outer.ElmoVersion)
	}
	n, hasINT, err := header.StreamInfo(l, payload)
	if err != nil {
		return p, err
	}
	p.Elmo = payload[:n]
	p.Inner = payload[n:]
	p.NoINT = !hasINT
	return p, nil
}

// SenderOuter builds the outer-header template a hypervisor uses for a
// group flow; the controller reuses it to predict the flow's ECMP path
// (e.g. for failure-impact analysis).
func SenderOuter(topo *topology.Topology, host topology.HostID, addr GroupAddr) header.OuterFields {
	return header.OuterFields{
		SrcMAC:      header.HostMAC(host),
		DstMAC:      groupMAC(addr),
		SrcIP:       header.HostIP(topo, host),
		DstIP:       header.GroupIP(addr.Group),
		SrcPort:     uint16(49152 + (uint32(host)^addr.Group)%16384),
		VNI:         addr.VNI,
		ElmoVersion: header.Version,
		TTL:         64,
	}
}

// ecmpSalt is the per-switch ECMP salt of a leaf or spine; prediction
// and the live pipeline must agree on it. The values are frozen (the
// ECMP golden test pins them): leaves shift their ID past the spines'.
func ecmpSalt(tier LinkTier, id int32) uint32 {
	if tier == LinkLeaf {
		return uint32(id) << 12
	}
	return 1<<24 | uint32(id)
}

// PredictPath returns the spine plane and core a healthy fabric's ECMP
// would carry the sender's group flow through. The controller uses it
// to decide which groups a spine/core failure actually impacts (§5.1.3b).
func PredictPath(topo *topology.Topology, outer header.OuterFields, sender topology.HostID) (plane int, core topology.CoreID) {
	cfg := topo.Config()
	leaf := topo.HostLeaf(sender)
	plane = int(ECMPHash(outer, ecmpSalt(LinkLeaf, int32(leaf))) % uint32(cfg.SpinesPerPod))
	spine := topo.SpineAt(topo.LeafPod(leaf), plane)
	corePort := int(ECMPHash(outer, ecmpSalt(LinkSpine, int32(spine))) % uint32(cfg.CoresPerPlane))
	return plane, topology.CoreID(plane*cfg.CoresPerPlane + corePort)
}

// FNV-1a constants (hash/fnv's 32-bit parameters, inlined below).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// ECMPHash computes the multipath hash a switch uses to pick one
// upstream port, salted by the switch identity so consecutive tiers
// don't correlate. It hashes the outer flow 5-tuple surrogate
// (IPs, source port, VNI).
//
// The FNV-1a loop is inlined so the buffer stays on the stack: the
// hash/fnv digest is an interface value and heap-escapes per call,
// which the forwarding fast path cannot afford. The byte layout —
// including the trailing zero pad at b[17], which the original
// implementation hashed — is frozen; a golden test pins the values so
// no multipath decision (or PredictPath result) ever moves.
func ECMPHash(f header.OuterFields, salt uint32) uint32 {
	var b [18]byte
	copy(b[0:4], f.SrcIP[:])
	copy(b[4:8], f.DstIP[:])
	b[8] = byte(f.SrcPort >> 8)
	b[9] = byte(f.SrcPort)
	b[10] = byte(f.VNI >> 16)
	b[11] = byte(f.VNI >> 8)
	b[12] = byte(f.VNI)
	b[13] = byte(salt >> 24)
	b[14] = byte(salt >> 16)
	b[15] = byte(salt >> 8)
	b[16] = byte(salt)
	h := uint32(fnvOffset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}
