package dataplane

import (
	"bytes"
	"errors"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/header"
)

// FuzzInstallSenderFlow: the hypervisor takes its sender flows as bytes
// from a caller, so it is a decoder of untrusted input. Any byte string
// is either refused, leaving no flow, or held as given — exactly one
// framed stream, copied — and the packets Encap then builds from it go
// through a leaf, a spine and a core without a panic (a malformed
// section is a drop, not a crash). The seeds are FuzzScanPipeline's.
func FuzzInstallSenderFlow(f *testing.F) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	core := bitmap.FromPorts(l.CoreDown, 1, 3)
	for _, h := range []*header.Header{
		{},
		{Core: &core},
		{
			ULeaf: &header.UpstreamRule{Down: bitmap.FromPorts(l.LeafDown, 1), Up: bitmap.New(l.LeafUp), Multipath: true},
			DLeaf: []header.PRule{{Switches: []uint16{3, 4}, Bitmap: bitmap.FromPorts(l.LeafDown, 0, 7)}},
		},
		{INTEnabled: true, INT: []header.INTRecord{{Tier: 1, ID: 9, Meta: 3}}},
	} {
		f.Add(encodeFor(f, topo, h))
	}
	f.Add([]byte{})
	f.Add([]byte{header.TagEnd})
	f.Add([]byte{0x77, 0x01, 0x02})
	f.Add([]byte{header.TagDLeaf, 0xff, 0x00})
	f.Add(zeroIdentifierStream(l))

	const host = 3
	addr := GroupAddr{VNI: 7, Group: 12}
	f.Fuzz(func(t *testing.T, data []byte) {
		hv := NewHypervisor(topo, host)
		sent := bytes.Clone(data)
		if err := hv.InstallSenderFlowAt(0, addr, sent); err != nil {
			if _, err := hv.Encap(addr, nil); !errors.Is(err, ErrNoSenderFlow) {
				t.Fatalf("a refused stream left a flow: %v", err)
			}
			return
		}
		n, hasINT, err := header.StreamInfo(l, data)
		if err != nil || n != len(data) {
			t.Fatalf("accepted %d bytes that frame as %d: %v", len(data), n, err)
		}
		for i := range sent {
			sent[i] ^= 0xff // the caller reuses its buffer
		}
		pkt, err := hv.Encap(addr, []byte("inner"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkt.Elmo, data) || pkt.NoINT == hasINT {
			t.Fatalf("flow holds %x (NoINT %t), sent %x (INT %t)", pkt.Elmo, pkt.NoINT, data, hasINT)
		}
		pkt.Outer.TTL = 8
		leaf := topo.HostLeaf(host)
		hops := []*NetworkSwitch{
			NewLeaf(topo, leaf, 4),
			NewSpine(topo, topo.SpineAt(topo.LeafPod(leaf), 0), 4),
			NewCore(topo, 0),
		}
		pkts := []Packet{pkt}
		var sc SwitchScratch
		for _, sw := range hops {
			var next []Packet
			for _, p := range pkts {
				ems, _ := sw.ProcessInto(p, &sc)
				for _, em := range ems {
					if em.Up {
						em.Packet.Elmo = bytes.Clone(em.Packet.Elmo) // outlives the scratch
						next = append(next, em.Packet)
					}
				}
			}
			pkts = next
		}
	})
}

// zeroIdentifierStream frames a d-leaf section whose one p-rule lists no
// switch: the lengths add up, and no switch will parse it.
func zeroIdentifierStream(l header.Layout) []byte {
	s := append([]byte{header.TagDLeaf, 1, 0}, make([]byte, bitmap.ByteLen(l.LeafDown))...)
	return append(s, 0, header.TagEnd)
}

// TestWireTiersRefuseZeroIdentifierRule: the frame decoder and the
// hypervisor admit only streams a switch can parse; a p-rule naming no
// switch used to pass both on length arithmetic alone.
func TestWireTiersRefuseZeroIdentifierRule(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	stream := zeroIdentifierStream(l)
	p := Packet{Outer: header.OuterFields{DstIP: header.GroupIP(3), VNI: 9, ElmoVersion: header.Version, TTL: 60},
		Elmo: stream, Inner: []byte("payload")}
	frame, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if q, err := Unmarshal(l, frame); err == nil {
		t.Fatalf("Unmarshal accepted a zero-identifier p-rule: %+v", q)
	}
	if err := NewHypervisor(topo, 3).InstallSenderFlowAt(0, GroupAddr{VNI: 9, Group: 3}, stream); err == nil {
		t.Fatal("InstallSenderFlowAt accepted a zero-identifier p-rule")
	}
}
