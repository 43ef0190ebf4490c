package dataplane

import (
	"math/rand"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// TestNoINTProvenance pins the two producers of the NoINT hint: Encap
// (from the group's INTEnabled flag) and Unmarshal (from the framing
// walk). The hint must be true exactly when the stream verifiably
// carries no INT section.
func TestNoINTProvenance(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	hv := NewHypervisor(topo, 3)
	addr := GroupAddr{VNI: 7, Group: 12}

	if err := hv.InstallSenderFlowAt(0, addr, encodeFor(t, topo, &header.Header{})); err != nil {
		t.Fatal(err)
	}
	pkt, err := hv.Encap(addr, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.NoINT {
		t.Fatal("Encap with INT disabled did not set NoINT")
	}
	if err := hv.InstallSenderFlowAt(0, addr, encodeFor(t, topo, &header.Header{INTEnabled: true})); err != nil {
		t.Fatal(err)
	}
	pkt, err = hv.Encap(addr, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if pkt.NoINT {
		t.Fatal("Encap with INT enabled claimed NoINT")
	}

	for _, intOn := range []bool{false, true} {
		core := bitmap.FromPorts(l.CoreDown, 1)
		stream, err := header.Encode(l, &header.Header{Core: &core, INTEnabled: intOn})
		if err != nil {
			t.Fatal(err)
		}
		p := Packet{
			Outer: header.OuterFields{DstIP: header.GroupIP(3), ElmoVersion: header.Version, TTL: 9},
			Elmo:  stream,
			Inner: []byte("x"),
		}
		wire, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Unmarshal(l, wire)
		if err != nil {
			t.Fatal(err)
		}
		if q.NoINT == intOn {
			t.Fatalf("Unmarshal with INT=%v set NoINT=%v", intOn, q.NoINT)
		}
	}

	// Plain VXLAN has no Elmo stream at all, so no INT either.
	plain := Packet{Outer: header.OuterFields{DstIP: [4]byte{10, 0, 0, 2}, TTL: 4}, Inner: []byte("p")}
	wire, err := plain.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(l, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !q.NoINT {
		t.Fatal("plain VXLAN packet did not set NoINT")
	}
}

// TestNoINTHintEmissionIdentical asserts the hint is purely an
// optimization: for randomized INT-free streams, ProcessInto emits
// byte-identical copies whether or not the packet carries the hint
// (hinted emissions skip the stamp/host-copy scans entirely).
func TestNoINTHintEmissionIdentical(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	scenarios := []string{"leaf-up", "leaf-down", "spine-up", "spine-down", "core"}
	r := rand.New(rand.NewSource(7))
	var sScan, sHint SwitchScratch

	checked := 0
	for i := 0; checked < 500; i++ {
		scenario := scenarios[r.Intn(len(scenarios))]
		leafID := topology.LeafID(r.Intn(topo.NumLeaves()))
		spineID := topology.SpineID(r.Intn(topo.NumSpines()))
		coreID := topology.CoreID(r.Intn(topo.NumCores()))
		pod := int(topo.SpinePod(spineID))

		stream := randHeader(t, r, topo, l, scenario, leafID, pod)
		if _, hasINT, err := header.StreamInfo(l, stream); err != nil || hasINT {
			continue // the hint only ever accompanies verified INT-free streams
		}

		var sw *NetworkSwitch
		switch scenario {
		case "leaf-up", "leaf-down":
			sw = NewLeaf(topo, leafID, 8)
		case "spine-up", "spine-down":
			sw = NewSpine(topo, spineID, 8)
		case "core":
			sw = NewCore(topo, coreID)
		}
		group, vni := uint32(r.Intn(32)), uint32(r.Intn(8))
		if sw.tier != LinkCore && r.Intn(2) == 0 {
			ports := randPorts(r, l.LeafDown)
			if sw.tier == LinkSpine {
				ports = randPorts(r, l.SpineDown)
			}
			if err := sw.InstallSRuleAt(0, GroupAddr{VNI: vni, Group: group}, ports); err != nil {
				t.Fatal(err)
			}
		}

		p := Packet{
			Outer: header.OuterFields{
				SrcIP:   [4]byte{10, 0, 0, byte(r.Intn(256))},
				DstIP:   header.GroupIP(group),
				SrcPort: uint16(49152 + r.Intn(16384)),
				VNI:     vni,
				TTL:     byte(2 + r.Intn(30)),
			},
			Elmo:  stream,
			Inner: []byte("inner"),
		}
		hinted := p
		hinted.NoINT = true

		sScan.Reset()
		sHint.Reset()
		scanEms, scanErr := sw.ProcessInto(p, &sScan)
		hintEms, hintErr := sw.ProcessInto(hinted, &sHint)
		if (scanErr == nil) != (hintErr == nil) {
			t.Fatalf("iter %d (%s): error mismatch scan=%v hint=%v", i, scenario, scanErr, hintErr)
		}
		if !emissionsEqual(scanEms, hintEms) {
			t.Fatalf("iter %d (%s): hinted emissions diverge\nscan: %+v\nhint: %+v",
				i, scenario, scanEms, hintEms)
		}
		checked++
	}
}
