package dataplane

import (
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// Process runs the switch pipeline against a scratch of its own, so
// tests may hold the emissions indefinitely (ProcessInto's alias the
// caller's scratch until it is reused).
func (sw *NetworkSwitch) Process(p Packet) ([]Emission, error) {
	return sw.ProcessInto(p, new(SwitchScratch))
}

// spineUpstreamPacket builds a packet as a spine would receive it from
// a source leaf: u-spine at the front.
func spineUpstreamPacket(t *testing.T, l header.Layout, down, up []int, multipath bool, tail *header.Header) Packet {
	t.Helper()
	h := &header.Header{
		USpine: &header.UpstreamRule{
			Down:      bitmap.FromPorts(l.SpineDown, down...),
			Up:        bitmap.FromPorts(l.SpineUp, up...),
			Multipath: multipath,
		},
	}
	if tail != nil {
		h.Core = tail.Core
		h.DSpine = tail.DSpine
		h.DSpineDefault = tail.DSpineDefault
		h.DLeaf = tail.DLeaf
		h.DLeafDefault = tail.DLeafDefault
	}
	stream, err := header.Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	return Packet{Outer: header.OuterFields{TTL: 30, DstIP: header.GroupIP(4), VNI: 2}, Elmo: stream}
}

func TestSpineUpstreamTurn(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	sw := NewSpine(topo, 0, 4)
	core := bitmap.FromPorts(l.CoreDown, 2)
	tail := &header.Header{
		Core:  &core,
		DLeaf: []header.PRule{{Switches: []uint16{5}, Bitmap: bitmap.FromPorts(l.LeafDown, 0)}},
	}
	// Down to leaf index 1 of the pod, multipath up.
	p := spineUpstreamPacket(t, l, []int{1}, nil, true, tail)
	ems, err := sw.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	var ups, downs int
	for _, em := range ems {
		if em.Up {
			ups++
			// The upward copy keeps the core section at its front.
			if tag, _ := header.PeekTag(em.Packet.Elmo); tag != header.TagCore {
				t.Fatalf("up copy front tag %#x", tag)
			}
		} else {
			downs++
			if em.Port != 1 {
				t.Fatalf("down port = %d", em.Port)
			}
			// The down copy skips ahead to the d-leaf section.
			if tag, _ := header.PeekTag(em.Packet.Elmo); tag != header.TagDLeaf {
				t.Fatalf("down copy front tag %#x", tag)
			}
		}
	}
	if ups != 1 || downs != 1 {
		t.Fatalf("ups=%d downs=%d", ups, downs)
	}
}

func TestSpineDownstreamMatchAndDefault(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	def := bitmap.FromPorts(l.SpineDown, 0, 1)
	h := &header.Header{
		DSpine: []header.PRule{
			{Switches: []uint16{2}, Bitmap: bitmap.FromPorts(l.SpineDown, 1)},
		},
		DSpineDefault: &def,
		DLeaf:         []header.PRule{{Switches: []uint16{4}, Bitmap: bitmap.FromPorts(l.LeafDown, 3)}},
	}
	stream, err := header.Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	pkt := Packet{Outer: header.OuterFields{TTL: 9, DstIP: header.GroupIP(1), VNI: 1}, Elmo: stream}

	// Spine 4 is in pod 2: matches the p-rule (port 1).
	sw := NewSpine(topo, 4, 4)
	ems, err := sw.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ems) != 1 || ems[0].Port != 1 || ems[0].Up {
		t.Fatalf("ems = %+v", ems)
	}
	if sw.Stats().PRuleHits != 1 {
		t.Fatal("p-rule hit not counted")
	}

	// Spine 6 (pod 3): no match, no s-rule -> default (two ports).
	sw3 := NewSpine(topo, 6, 4)
	ems, err = sw3.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ems) != 2 {
		t.Fatalf("default fan-out = %d", len(ems))
	}
	if sw3.Stats().Defaults != 1 {
		t.Fatal("default use not counted")
	}

	// With an s-rule installed, it wins over the default.
	sw5 := NewSpine(topo, 6, 4)
	if err := sw5.InstallSRuleAt(0, GroupAddr{VNI: 1, Group: 1}, bitmap.FromPorts(l.SpineDown, 0)); err != nil {
		t.Fatal(err)
	}
	ems, err = sw5.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ems) != 1 || ems[0].Port != 0 {
		t.Fatalf("s-rule path = %+v", ems)
	}
	if sw5.Stats().SRuleHits != 1 {
		t.Fatal("s-rule hit not counted")
	}
}

func TestCoreFanOut(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	core := bitmap.FromPorts(l.CoreDown, 1, 3)
	h := &header.Header{Core: &core}
	stream, err := header.Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewCore(topo, 2)
	if sw.tier != LinkCore || sw.tier.String() != "core" {
		t.Fatal("tier wrong")
	}
	ems, err := sw.Process(Packet{Outer: header.OuterFields{TTL: 5}, Elmo: stream})
	if err != nil {
		t.Fatal(err)
	}
	if len(ems) != 2 || ems[0].Port != 1 || ems[1].Port != 3 {
		t.Fatalf("core emissions = %+v", ems)
	}
	for _, em := range ems {
		if tag, _ := header.PeekTag(em.Packet.Elmo); tag != header.TagEnd {
			t.Fatalf("core did not pop its section: %#x", tag)
		}
	}
}

func TestLegacySwitchProcess(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	sw := NewLeaf(topo, 3, 4)
	sw.Legacy = true
	addr := GroupAddr{VNI: 2, Group: 9}
	if err := sw.InstallSRuleAt(0, addr, bitmap.FromPorts(l.LeafDown, 2, 5)); err != nil {
		t.Fatal(err)
	}
	stream, _ := header.Encode(l, &header.Header{
		DLeaf: []header.PRule{{Switches: []uint16{3}, Bitmap: bitmap.FromPorts(l.LeafDown, 7)}},
	})
	pkt := Packet{Outer: header.OuterFields{TTL: 8, DstIP: header.GroupIP(9), VNI: 2}, Elmo: stream}
	ems, err := sw.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	// The legacy switch ignores the p-rule (port 7) and uses its group
	// table (ports 2, 5), leaving the stream unpopped.
	if len(ems) != 2 {
		t.Fatalf("legacy fan-out = %+v", ems)
	}
	for _, em := range ems {
		if len(em.Packet.Elmo) != len(stream) {
			t.Fatal("legacy switch modified the stream")
		}
	}
	// Without an s-rule the legacy switch drops.
	sw.RemoveSRuleAt(0, addr)
	ems, err = sw.Process(pkt)
	if err != nil || len(ems) != 0 {
		t.Fatalf("ems=%v err=%v", ems, err)
	}
	if sw.Stats().Drops[DropNoRule] == 0 {
		t.Fatal("legacy no-rule drop not counted")
	}
	// Legacy cores are rejected.
	coreSw := NewCore(topo, 0)
	coreSw.Legacy = true
	if _, err := coreSw.Process(pkt); err == nil {
		t.Fatal("legacy core accepted")
	}
}

func TestPredictPathMatchesDataplane(t *testing.T) {
	// The controller-side prediction must agree with the actual
	// pipeline choices for every sender and group.
	topo := topology.MustNew(topology.FacebookFabric())
	l := header.LayoutFor(topo)
	for i := 0; i < 200; i++ {
		host := topology.HostID((i * 997) % topo.NumHosts())
		addr := GroupAddr{VNI: uint32(i % 7), Group: uint32(i)}
		outer := SenderOuter(topo, host, addr)
		wantPlane, wantCore := PredictPath(topo, outer, host)

		leaf := NewLeaf(topo, topo.HostLeaf(host), 1)
		h := &header.Header{ULeaf: &header.UpstreamRule{
			Down: bitmap.New(l.LeafDown), Up: bitmap.New(l.LeafUp), Multipath: true,
		}}
		stream, err := header.Encode(l, h)
		if err != nil {
			t.Fatal(err)
		}
		ems, err := leaf.Process(Packet{Outer: outer, Elmo: stream})
		if err != nil {
			t.Fatal(err)
		}
		if len(ems) != 1 || ems[0].Port != wantPlane {
			t.Fatalf("host %d: leaf picked %d, predicted %d", host, ems[0].Port, wantPlane)
		}
		spineID := topo.SpineAt(topo.HostPod(host), wantPlane)
		spine := NewSpine(topo, spineID, 1)
		core := bitmap.FromPorts(l.CoreDown, int(topo.HostPod(host)+1)%topo.NumPods())
		h2 := &header.Header{
			USpine: &header.UpstreamRule{Down: bitmap.New(l.SpineDown), Up: bitmap.New(l.SpineUp), Multipath: true},
			Core:   &core,
		}
		stream2, err := header.Encode(l, h2)
		if err != nil {
			t.Fatal(err)
		}
		ems2, err := spine.Process(Packet{Outer: outer, Elmo: stream2})
		if err != nil {
			t.Fatal(err)
		}
		if len(ems2) != 1 || !ems2[0].Up {
			t.Fatalf("host %d: spine emissions %+v", host, ems2)
		}
		gotCore := topo.SpineUpstream(spineID, ems2[0].Port)
		if gotCore != wantCore {
			t.Fatalf("host %d: spine picked core %d, predicted %d", host, gotCore, wantCore)
		}
	}
}

func TestStreamLenAndHostAccessors(t *testing.T) {
	topo := paperTopo()
	hv := NewHypervisor(topo, 17)
	if hv.Host() != 17 {
		t.Fatal("Host accessor wrong")
	}
	addr := GroupAddr{VNI: 1, Group: 1}
	if err := hv.InstallSenderFlowAt(0, addr, encodeFor(t, topo, &header.Header{})); err != nil {
		t.Fatal(err)
	}
	// SenderFlow.StreamLen is visible through Encap'd packet size.
	pkt, err := hv.Encap(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Elmo) != 1 {
		t.Fatalf("empty header stream len = %d", len(pkt.Elmo))
	}
}
