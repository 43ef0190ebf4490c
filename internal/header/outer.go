package header

import (
	"encoding/binary"
	"fmt"

	"elmo/internal/topology"
)

// This file implements the outer encapsulation Elmo rides on (paper
// §2, §7 "path to deployment"): Ethernet / IPv4 / UDP / VXLAN, with
// real byte layouts. The Elmo section stream follows the VXLAN header;
// the Elmo version is carried in VXLAN's first reserved byte, so the
// section stream itself can be popped by pure slicing at each hop.

// Encapsulation sizes in bytes.
const (
	EthernetSize = 14
	IPv4Size     = 20
	UDPSize      = 8
	VXLANSize    = 8
	// OuterSize is the total outer-header overhead preceding the Elmo
	// section stream.
	OuterSize = EthernetSize + IPv4Size + UDPSize + VXLANSize
	// VXLANPort is the IANA-assigned VXLAN UDP destination port.
	VXLANPort = 4789
	// ethertype for IPv4
	etherTypeIPv4 = 0x0800
	protoUDP      = 17
)

// OuterFields are the mutable fields of the outer encapsulation; the
// rest (ethertype, protocol, ports, checksums, lengths) are fixed or
// derived.
type OuterFields struct {
	SrcMAC, DstMAC [6]byte
	SrcIP, DstIP   [4]byte
	// SrcPort provides flow entropy for the fabric's ECMP hashing, as
	// VXLAN deployments do.
	SrcPort uint16
	// VNI is the 24-bit tenant network identifier; it gives Elmo
	// address-space isolation (§1): group IPs are scoped per VNI.
	VNI uint32
	// ElmoVersion is carried in the VXLAN reserved byte; zero means
	// "plain VXLAN, no Elmo section stream".
	ElmoVersion byte
	// TTL of the outer IPv4 header.
	TTL byte
}

// AppendOuter appends the 50-byte outer encapsulation for a payload of
// the given length (Elmo section stream + inner frame) to dst.
func AppendOuter(dst []byte, f OuterFields, payloadLen int) ([]byte, error) {
	if f.VNI >= 1<<24 {
		return dst, fmt.Errorf("header: VNI %d exceeds 24 bits", f.VNI)
	}
	ipLen := IPv4Size + UDPSize + VXLANSize + payloadLen
	if ipLen > 0xffff {
		return dst, fmt.Errorf("header: IPv4 total length %d overflows", ipLen)
	}
	ttl := f.TTL
	if ttl == 0 {
		ttl = 64
	}
	// Ethernet
	dst = append(dst, f.DstMAC[:]...)
	dst = append(dst, f.SrcMAC[:]...)
	dst = binary.BigEndian.AppendUint16(dst, etherTypeIPv4)
	// IPv4
	ipStart := len(dst)
	dst = append(dst, 0x45, 0) // version 4, IHL 5, DSCP 0
	dst = binary.BigEndian.AppendUint16(dst, uint16(ipLen))
	dst = append(dst, 0, 0, 0x40, 0) // ident 0, flags DF, frag 0
	dst = append(dst, ttl, protoUDP, 0, 0)
	dst = append(dst, f.SrcIP[:]...)
	dst = append(dst, f.DstIP[:]...)
	cs := ipv4Checksum(dst[ipStart : ipStart+IPv4Size])
	binary.BigEndian.PutUint16(dst[ipStart+10:], cs)
	// UDP (checksum 0: legal over IPv4 and conventional for VXLAN)
	dst = binary.BigEndian.AppendUint16(dst, f.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, VXLANPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(UDPSize+VXLANSize+payloadLen))
	dst = append(dst, 0, 0)
	// VXLAN: flags (I bit), reserved[0]=Elmo version, VNI, reserved
	dst = append(dst, 0x08, f.ElmoVersion, 0, 0)
	dst = append(dst, byte(f.VNI>>16), byte(f.VNI>>8), byte(f.VNI))
	dst = append(dst, 0)
	return dst, nil
}

// ParseOuter validates and parses the outer encapsulation, returning
// the fields and the payload (Elmo section stream + inner frame).
func ParseOuter(data []byte) (OuterFields, []byte, error) {
	var f OuterFields
	if len(data) < OuterSize {
		return f, nil, fmt.Errorf("header: outer truncated (%d bytes)", len(data))
	}
	copy(f.DstMAC[:], data[0:6])
	copy(f.SrcMAC[:], data[6:12])
	if et := binary.BigEndian.Uint16(data[12:]); et != etherTypeIPv4 {
		return f, nil, fmt.Errorf("header: ethertype %#x, want IPv4", et)
	}
	ip := data[EthernetSize:]
	if ip[0] != 0x45 {
		return f, nil, fmt.Errorf("header: IPv4 version/IHL %#x, want 0x45", ip[0])
	}
	if ip[9] != protoUDP {
		return f, nil, fmt.Errorf("header: IP protocol %d, want UDP", ip[9])
	}
	if cs := ipv4Checksum(ip[:IPv4Size]); cs != 0 {
		return f, nil, fmt.Errorf("header: bad IPv4 checksum")
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:]))
	if totalLen < OuterSize-EthernetSize || EthernetSize+totalLen > len(data) {
		return f, nil, fmt.Errorf("header: IPv4 length %d outside [%d, frame]", totalLen, OuterSize-EthernetSize)
	}
	f.TTL = ip[8]
	copy(f.SrcIP[:], ip[12:16])
	copy(f.DstIP[:], ip[16:20])
	udp := data[EthernetSize+IPv4Size:]
	f.SrcPort = binary.BigEndian.Uint16(udp)
	if dp := binary.BigEndian.Uint16(udp[2:]); dp != VXLANPort {
		return f, nil, fmt.Errorf("header: UDP dst port %d, want %d", dp, VXLANPort)
	}
	vx := data[EthernetSize+IPv4Size+UDPSize:]
	if vx[0]&0x08 == 0 {
		return f, nil, fmt.Errorf("header: VXLAN I flag not set")
	}
	f.ElmoVersion = vx[1]
	f.VNI = uint32(vx[4])<<16 | uint32(vx[5])<<8 | uint32(vx[6])
	end := EthernetSize + totalLen
	return f, data[OuterSize:end], nil
}

// ipv4Checksum computes the Internet checksum over hdr. Computing it
// over a header whose checksum field holds the correct value yields 0.
func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// HostIP returns the underlay IPv4 address for a host:
// 10.<pod>.<leaf-in-pod>.<port+1>. Panics if the topology exceeds the
// /8 addressing plan (paper-scale fabrics fit comfortably).
func HostIP(t *topology.Topology, h topology.HostID) [4]byte {
	pod := int(t.HostPod(h))
	leaf := t.LeafIndexInPod(t.HostLeaf(h))
	port := t.HostPort(h)
	if pod > 255 || leaf > 255 || port > 253 {
		panic("header: topology exceeds 10/8 addressing plan")
	}
	return [4]byte{10, byte(pod), byte(leaf), byte(port + 1)}
}

// GroupIP returns the provider-scoped multicast address for a group
// index: 239.<g23-16>.<g15-8>.<g7-0>. Group indices are scoped per
// tenant VNI, so tenants choose group addresses independently
// (address-space isolation).
func GroupIP(group uint32) [4]byte {
	if group >= 1<<24 {
		panic(fmt.Sprintf("header: group index %d exceeds 24 bits", group))
	}
	return [4]byte{239, byte(group >> 16), byte(group >> 8), byte(group)}
}

// GroupFromIP inverts GroupIP. The boolean reports whether ip is in
// the 239/8 administratively-scoped block this package allocates from.
func GroupFromIP(ip [4]byte) (uint32, bool) {
	if ip[0] != 239 {
		return 0, false
	}
	return uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3]), true
}

// HostMAC returns a locally-administered MAC for a host.
func HostMAC(h topology.HostID) [6]byte {
	return [6]byte{0x02, 0x65, 0x6c, byte(h >> 16), byte(h >> 8), byte(h)}
}
