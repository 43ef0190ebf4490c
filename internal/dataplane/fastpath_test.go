package dataplane

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// fnvOracle is the original ECMPHash implementation (hash/fnv digest
// over the 18-byte flow buffer, trailing pad byte included).
func fnvOracle(f header.OuterFields, salt uint32) uint32 {
	h := fnv.New32a()
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
	h.Write(b[:])
	return h.Sum32()
}

// TestECMPHashGolden pins literal hash values: if any of these move,
// every multipath decision (and PredictPath) moves with them, breaking
// controller/data-plane agreement across versions.
func TestECMPHashGolden(t *testing.T) {
	cases := []struct {
		f    header.OuterFields
		salt uint32
		want uint32
	}{
		{header.OuterFields{}, 0, 0x4211a50d},
		{header.OuterFields{SrcIP: [4]byte{10, 0, 1, 2}, DstIP: [4]byte{239, 0, 0, 7}, SrcPort: 49321, VNI: 3}, 0x00001005, 0xb4489f87},
		{header.OuterFields{SrcIP: [4]byte{10, 3, 0, 9}, DstIP: [4]byte{239, 1, 2, 3}, SrcPort: 65535, VNI: 0xABCDEF}, 0x01000004, 0xc7ec9b84},
		{header.OuterFields{SrcIP: [4]byte{192, 168, 255, 1}, DstIP: [4]byte{239, 255, 255, 255}, SrcPort: 1, VNI: 1}, 0xFFFFFFFF, 0x7c77692b},
	}
	for i, c := range cases {
		if got := ECMPHash(c.f, c.salt); got != c.want {
			t.Errorf("case %d: ECMPHash = %#x, want %#x", i, got, c.want)
		}
	}
}

// TestECMPHashMatchesFNV checks the inlined FNV-1a loop against the
// hash/fnv digest on randomized flows.
func TestECMPHashMatchesFNV(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		var f header.OuterFields
		r.Read(f.SrcIP[:])
		r.Read(f.DstIP[:])
		f.SrcPort = uint16(r.Uint32())
		f.VNI = r.Uint32() & 0xFFFFFF
		salt := r.Uint32()
		if got, want := ECMPHash(f, salt), fnvOracle(f, salt); got != want {
			t.Fatalf("flow %d: inline hash %#x != fnv %#x", i, got, want)
		}
	}
}

// randPorts returns a random (possibly empty) port subset of width.
func randPorts(r *rand.Rand, width int) bitmap.Bitmap {
	b := bitmap.New(width)
	for i := 0; i < width; i++ {
		if r.Intn(3) == 0 {
			b.Set(i)
		}
	}
	return b
}

func randSwitchIDs(r *rand.Rand, max int, include uint16) []uint16 {
	ids := make([]uint16, 0, 3)
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		ids = append(ids, uint16(r.Intn(max)))
	}
	if r.Intn(2) == 0 {
		ids[r.Intn(len(ids))] = include
	}
	return ids
}

// randHeader builds a randomized (valid) section stream for the given
// receiving tier/direction, exercising p-rule match, miss, default, and
// INT-stamping combinations.
func randHeader(t *testing.T, r *rand.Rand, topo *topology.Topology, l header.Layout, scenario string, leafID topology.LeafID, pod int) []byte {
	t.Helper()
	h := &header.Header{}
	addDLeaf := func() {
		if r.Intn(2) == 0 {
			var rules []header.PRule
			for i := 0; i < 1+r.Intn(2); i++ {
				bm := randPorts(r, l.LeafDown)
				rules = append(rules, header.PRule{Switches: randSwitchIDs(r, topo.NumLeaves(), uint16(leafID)), Bitmap: bm})
			}
			h.DLeaf = rules
		}
		if r.Intn(2) == 0 {
			def := randPorts(r, l.LeafDown)
			h.DLeafDefault = &def
		}
	}
	addDSpine := func() {
		if r.Intn(2) == 0 {
			var rules []header.PRule
			for i := 0; i < 1+r.Intn(2); i++ {
				bm := randPorts(r, l.SpineDown)
				rules = append(rules, header.PRule{Switches: randSwitchIDs(r, topo.NumPods(), uint16(pod)), Bitmap: bm})
			}
			h.DSpine = rules
		}
		if r.Intn(2) == 0 {
			def := randPorts(r, l.SpineDown)
			h.DSpineDefault = &def
		}
	}
	switch scenario {
	case "leaf-up":
		h.ULeaf = &header.UpstreamRule{
			Down:      randPorts(r, l.LeafDown),
			Up:        randPorts(r, l.LeafUp),
			Multipath: r.Intn(2) == 0,
		}
		if r.Intn(2) == 0 {
			core := randPorts(r, l.CoreDown)
			h.Core = &core
		}
		addDSpine()
		addDLeaf()
	case "spine-up":
		h.USpine = &header.UpstreamRule{
			Down:      randPorts(r, l.SpineDown),
			Up:        randPorts(r, l.SpineUp),
			Multipath: r.Intn(2) == 0,
		}
		if r.Intn(2) == 0 {
			core := randPorts(r, l.CoreDown)
			h.Core = &core
		}
		addDSpine()
		addDLeaf()
	case "core":
		core := randPorts(r, l.CoreDown)
		h.Core = &core
		addDSpine()
		addDLeaf()
	case "spine-down":
		addDSpine()
		addDLeaf()
	case "leaf-down", "legacy":
		addDLeaf()
	}
	if r.Intn(2) == 0 {
		h.INTEnabled = true
		for i := 0; i < r.Intn(3); i++ {
			h.INT = append(h.INT, header.INTRecord{
				Tier: uint8(1 + r.Intn(3)), ID: uint16(r.Intn(64)), Meta: uint8(r.Intn(256)),
			})
		}
	}
	stream, err := header.Encode(l, h)
	if err != nil {
		t.Fatalf("encode %s: %v", scenario, err)
	}
	return stream
}

func emissionsEqual(a, b []Emission) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Port != b[i].Port || a[i].Up != b[i].Up ||
			a[i].Packet.Outer != b[i].Packet.Outer ||
			!bytes.Equal(a[i].Packet.Elmo, b[i].Packet.Elmo) ||
			!bytes.Equal(a[i].Packet.Inner, b[i].Packet.Inner) {
			return false
		}
	}
	return true
}

func statsEqual(a, b *Stats) bool {
	return a.Packets == b.Packets && a.Copies == b.Copies &&
		a.SRuleHits == b.SRuleHits && a.PRuleHits == b.PRuleHits &&
		a.Defaults == b.Defaults && reflect.DeepEqual(a.Drops, b.Drops)
}

// TestProcessIntoEquivalence drives randomized traffic through all
// three switch tiers (both directions, INT stamping, s-rule and
// default-rule fallback, legacy mode, TTL drops, truncated streams)
// and asserts ReferenceProcess, Process, and ProcessInto agree on
// emissions, errors, and stats.
func TestProcessIntoEquivalence(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	scenarios := []string{"leaf-up", "leaf-down", "spine-up", "spine-down", "core", "legacy"}
	r := rand.New(rand.NewSource(42))
	var scratch SwitchScratch

	for i := 0; i < 3000; i++ {
		scenario := scenarios[r.Intn(len(scenarios))]
		leafID := topology.LeafID(r.Intn(topo.NumLeaves()))
		spineID := topology.SpineID(r.Intn(topo.NumSpines()))
		coreID := topology.CoreID(r.Intn(topo.NumCores()))
		pod := int(topo.SpinePod(spineID))

		// Three identically-configured switches: one per implementation,
		// so stats can be compared too.
		var sws [3]*NetworkSwitch
		for j := range sws {
			switch scenario {
			case "leaf-up", "leaf-down", "legacy":
				sws[j] = NewLeaf(topo, leafID, 8)
			case "spine-up", "spine-down":
				sws[j] = NewSpine(topo, spineID, 8)
			case "core":
				sws[j] = NewCore(topo, coreID)
			}
		}
		group := uint32(r.Intn(32))
		vni := uint32(r.Intn(8))
		if scenario == "legacy" {
			sws[0].Legacy, sws[1].Legacy, sws[2].Legacy = true, true, true
		}
		if sws[0].tier != LinkCore && r.Intn(2) == 0 {
			ports := randPorts(r, l.LeafDown)
			if sws[0].tier == LinkSpine {
				ports = randPorts(r, l.SpineDown)
			}
			for j := range sws {
				if err := sws[j].InstallSRuleAt(0, GroupAddr{VNI: vni, Group: group}, ports); err != nil {
					t.Fatal(err)
				}
			}
		}
		if r.Intn(3) == 0 {
			dead := r.Intn(8)
			for j := range sws {
				sws[j].UpstreamAlive = func(port int) bool { return port != dead }
			}
		}

		stream := randHeader(t, r, topo, l, scenario, leafID, pod)
		if r.Intn(10) == 0 && len(stream) > 1 {
			stream = stream[:r.Intn(len(stream))] // truncated/malformed
		}
		ttl := byte(r.Intn(40)) // includes TTL<=1 drops
		outer := header.OuterFields{
			SrcIP:   [4]byte{10, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))},
			DstIP:   header.GroupIP(group),
			SrcPort: uint16(49152 + r.Intn(16384)),
			VNI:     vni,
			TTL:     ttl,
		}
		inner := make([]byte, r.Intn(32))
		r.Read(inner)
		p := Packet{Outer: outer, Elmo: stream, Inner: inner}

		refEms, refErr := sws[0].ReferenceProcess(p)
		wrapEms, wrapErr := sws[1].Process(p)
		intoEms, intoErr := sws[2].ProcessInto(p, &scratch)
		scratch.Reset()

		if (refErr == nil) != (wrapErr == nil) || (refErr == nil) != (intoErr == nil) {
			t.Fatalf("iter %d (%s): error mismatch ref=%v wrap=%v into=%v", i, scenario, refErr, wrapErr, intoErr)
		}
		if refErr != nil && (refErr.Error() != wrapErr.Error() || refErr.Error() != intoErr.Error()) {
			t.Fatalf("iter %d (%s): error text mismatch ref=%q wrap=%q into=%q", i, scenario, refErr, wrapErr, intoErr)
		}
		if !emissionsEqual(refEms, wrapEms) {
			t.Fatalf("iter %d (%s): Process emissions diverge\nref:  %+v\nwrap: %+v", i, scenario, refEms, wrapEms)
		}
		if !emissionsEqual(refEms, intoEms) {
			t.Fatalf("iter %d (%s): ProcessInto emissions diverge\nref:  %+v\ninto: %+v", i, scenario, refEms, intoEms)
		}
		if !statsEqual(sws[0].Stats(), sws[1].Stats()) || !statsEqual(sws[0].Stats(), sws[2].Stats()) {
			t.Fatalf("iter %d (%s): stats diverge ref=%+v wrap=%+v into=%+v",
				i, scenario, sws[0].Stats(), sws[1].Stats(), sws[2].Stats())
		}
	}
}

// TestProcessIntoArenaBatchSafety checks the append-only arena
// contract: emissions from earlier packets in a batch (INT-stamped
// streams aliasing the arena) survive later ProcessInto calls on the
// same scratch, including calls that force arena growth.
func TestProcessIntoArenaBatchSafety(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	core := bitmap.FromPorts(l.CoreDown, 0, 1)
	h := &header.Header{Core: &core, INTEnabled: true}
	stream, err := header.Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewCore(topo, 3)
	p := Packet{Outer: header.OuterFields{TTL: 9}, Elmo: stream}

	var s SwitchScratch
	first, err := sw.ProcessInto(p, &s)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.arena) == 0 {
		t.Fatal("INT-enabled stream did not stamp")
	}
	snapshot := make([][]byte, len(first))
	for i, em := range first {
		snapshot[i] = append([]byte(nil), em.Packet.Elmo...)
	}
	held := make([]Emission, len(first))
	copy(held, first)
	// Process many more packets without Reset: arena must grow without
	// invalidating the held emissions.
	for i := 0; i < 200; i++ {
		if _, err := sw.ProcessInto(p, &s); err != nil {
			t.Fatal(err)
		}
	}
	for i, em := range held {
		if !bytes.Equal(em.Packet.Elmo, snapshot[i]) {
			t.Fatalf("batch emission %d corrupted by later stamping", i)
		}
	}
}

// TestProcessIntoZeroAllocs asserts the fast path performs no heap
// allocation once the scratch is warm, on every tier and on the
// INT-stamping and s-rule fallback paths.
func TestProcessIntoZeroAllocs(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)

	mk := func(h *header.Header, ttl byte, group, vni uint32) Packet {
		stream, err := header.Encode(l, h)
		if err != nil {
			t.Fatal(err)
		}
		return Packet{Outer: header.OuterFields{TTL: ttl, DstIP: header.GroupIP(group), VNI: vni, SrcPort: 49153}, Elmo: stream}
	}

	coreBM := bitmap.FromPorts(l.CoreDown, 0, 2)
	dspineDef := bitmap.FromPorts(l.SpineDown, 1)
	cases := []struct {
		name string
		sw   *NetworkSwitch
		pkt  Packet
	}{
		{
			name: "leaf-upstream-int-multipath",
			sw:   NewLeaf(topo, 2, 8),
			pkt: mk(&header.Header{
				ULeaf: &header.UpstreamRule{
					Down:      bitmap.FromPorts(l.LeafDown, 0, 3),
					Up:        bitmap.New(l.LeafUp),
					Multipath: true,
				},
				Core:       &coreBM,
				INTEnabled: true,
			}, 17, 4, 2),
		},
		{
			name: "spine-upstream",
			sw:   NewSpine(topo, 1, 8),
			pkt: mk(&header.Header{
				USpine: &header.UpstreamRule{
					Down: bitmap.FromPorts(l.SpineDown, 1),
					Up:   bitmap.FromPorts(l.SpineUp, 0),
				},
				Core:  &coreBM,
				DLeaf: []header.PRule{{Switches: []uint16{3}, Bitmap: bitmap.FromPorts(l.LeafDown, 2)}},
			}, 17, 4, 2),
		},
		{
			name: "core-int",
			sw:   NewCore(topo, 0),
			pkt: mk(&header.Header{
				Core:       &coreBM,
				INTEnabled: true,
			}, 17, 4, 2),
		},
		{
			name: "spine-downstream-default",
			sw:   NewSpine(topo, 0, 8),
			pkt: mk(&header.Header{
				DSpine:        []header.PRule{{Switches: []uint16{3}, Bitmap: bitmap.FromPorts(l.SpineDown, 0)}},
				DSpineDefault: &dspineDef,
				DLeaf:         []header.PRule{{Switches: []uint16{3}, Bitmap: bitmap.FromPorts(l.LeafDown, 2)}},
			}, 17, 4, 2),
		},
		{
			name: "leaf-downstream-prule-int",
			sw:   NewLeaf(topo, 3, 8),
			pkt: mk(&header.Header{
				DLeaf:      []header.PRule{{Switches: []uint16{3}, Bitmap: bitmap.FromPorts(l.LeafDown, 1, 5)}},
				INTEnabled: true,
			}, 17, 4, 2),
		},
	}

	// s-rule fallback tier: leaf consults its group table.
	srLeaf := NewLeaf(topo, 5, 8)
	if err := srLeaf.InstallSRuleAt(0, GroupAddr{VNI: 2, Group: 4}, bitmap.FromPorts(l.LeafDown, 0, 7)); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name string
		sw   *NetworkSwitch
		pkt  Packet
	}{"leaf-srule-fallback", srLeaf, mk(&header.Header{}, 17, 4, 2)})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s SwitchScratch
			// Warm the scratch (grow emissions, alive, arena, decode bitmaps).
			for i := 0; i < 8; i++ {
				s.Reset()
				if _, err := c.sw.ProcessInto(c.pkt, &s); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				s.Reset()
				if _, err := c.sw.ProcessInto(c.pkt, &s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("ProcessInto allocs/op = %v, want 0", allocs)
			}
		})
	}
}

func BenchmarkProcessIntoLeafUpstream(b *testing.B) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	core := bitmap.FromPorts(l.CoreDown, 0)
	h := &header.Header{
		ULeaf: &header.UpstreamRule{
			Down:      bitmap.FromPorts(l.LeafDown, 0, 3),
			Up:        bitmap.New(l.LeafUp),
			Multipath: true,
		},
		Core: &core,
	}
	stream, err := header.Encode(l, h)
	if err != nil {
		b.Fatal(err)
	}
	sw := NewLeaf(topo, 2, 8)
	p := Packet{Outer: header.OuterFields{TTL: 17, DstIP: header.GroupIP(4), VNI: 2}, Elmo: stream}
	var s SwitchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if _, err := sw.ProcessInto(p, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceProcessLeafUpstream(b *testing.B) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	core := bitmap.FromPorts(l.CoreDown, 0)
	h := &header.Header{
		ULeaf: &header.UpstreamRule{
			Down:      bitmap.FromPorts(l.LeafDown, 0, 3),
			Up:        bitmap.New(l.LeafUp),
			Multipath: true,
		},
		Core: &core,
	}
	stream, err := header.Encode(l, h)
	if err != nil {
		b.Fatal(err)
	}
	sw := NewLeaf(topo, 2, 8)
	p := Packet{Outer: header.OuterFields{TTL: 17, DstIP: header.GroupIP(4), VNI: 2}, Elmo: stream}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.ReferenceProcess(p); err != nil {
			b.Fatal(err)
		}
	}
}
