package header

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/topology"
)

// idLayout is a layout whose d-spine and d-leaf identifiers are both w
// bits wide: 2^w pods of one leaf each.
func idLayout(w int) Layout {
	return Layout{LeafDown: 8, LeafUp: 1, SpineDown: 1, SpineUp: 1, CoreDown: 1 << w,
		podIDBits: uint8(w), leafIDBits: uint8(w)}
}

// downstreamHeader is a header holding rules (and def) in the section
// with the given tag only.
func downstreamHeader(tag byte, rules []PRule, def *bitmap.Bitmap) *Header {
	if tag == TagDSpine {
		return &Header{DSpine: rules, DSpineDefault: def}
	}
	return &Header{DLeaf: rules, DLeafDefault: def}
}

// TestPackedIdentifiersRoundTrip packs one rule of every identifier count
// a rule may hold at every identifier width, and reads it back with both
// readers: Decode returns the identifiers written, ConsumeDownstreamInto
// matches every listed identifier and no other. The section is read
// once as the head of a stream and once cut right after its
// default-presence byte, which sends the per-hop reader down its tail
// path.
func TestPackedIdentifiersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var m DownstreamMatch
	for w := 1; w <= maxIDBits; w++ {
		l := idLayout(w)
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= MaxSwitchesPerRule; n++ {
			ids := make([]uint16, n)
			for i := range ids {
				ids[i] = uint16(rng.Intn(1 << w))
			}
			ids[rng.Intn(n)] = uint16(1<<w - 1) // the widest identifier fits
			listed := map[uint16]bool{}
			for _, id := range ids {
				listed[id] = true
			}
			for _, tag := range []byte{TagDSpine, TagDLeaf} {
				width, _, _ := downstreamWidths(l, tag)
				ports := bitmap.FromPorts(width, n%width)
				h := downstreamHeader(tag, []PRule{{Switches: ids, Bitmap: ports}}, nil)
				stream, err := Encode(l, h)
				if err != nil {
					t.Fatalf("w=%d n=%d: %v", w, n, err)
				}
				if len(stream) != EncodedSize(l, h) {
					t.Fatalf("w=%d n=%d: EncodedSize %d, wire %d", w, n, EncodedSize(l, h), len(stream))
				}
				if want := 3 + 1 + (n*w+7)/8 + bitmap.ByteLen(width) + EndSize; len(stream) != want {
					t.Fatalf("w=%d n=%d: %d bytes, want %d", w, n, len(stream), want)
				}
				dec, _, err := Decode(l, stream)
				if err != nil {
					t.Fatalf("w=%d n=%d: decode: %v", w, n, err)
				}
				got := dec.DLeaf
				if tag == TagDSpine {
					got = dec.DSpine
				}
				if len(got) != 1 || !equalIDs(got[0].Switches, ids) || !got[0].Bitmap.Equal(ports) {
					t.Fatalf("w=%d n=%d: decoded %+v, wrote %v", w, n, got, ids)
				}
				probe := func(id uint16) {
					for _, section := range [][]byte{stream, stream[:len(stream)-EndSize]} {
						rest, err := ConsumeDownstreamInto(l, tag, id, section, &m)
						if err != nil || len(rest) != len(section)-(len(stream)-EndSize) {
							t.Fatalf("w=%d n=%d id=%d: rest %d bytes, err %v", w, n, id, len(rest), err)
						}
						if m.Matched != listed[id] || (m.Matched && !m.Bitmap.Equal(ports)) {
							t.Fatalf("w=%d n=%d tag %#x id=%d: matched %t, listed %t", w, n, tag, id, m.Matched, listed[id])
						}
					}
				}
				for id := range listed {
					probe(id)
				}
				if w <= 8 {
					for id := 0; id <= 1<<w; id++ { // 1<<w itself is wider than a lane
						probe(uint16(id))
					}
				} else {
					for k := 0; k < 16; k++ {
						probe(uint16(rng.Intn(1 << w)))
					}
				}
			}
		}
	}
}

func equalIDs(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPerHopReaderMixedShapes holds the per-hop reader to Decode on
// sections that interleave rules of one, two and more identifiers (the
// fast loops' two shapes and the general path) at every identifier
// width, with and without a default rule.
func TestPerHopReaderMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for w := 1; w <= maxIDBits; w++ {
		l := idLayout(w)
		for trial := 0; trial < 60; trial++ {
			tag := []byte{TagDSpine, TagDLeaf}[trial%2]
			width, _, _ := downstreamWidths(l, tag)
			rules := make([]PRule, 1+rng.Intn(12))
			for i := range rules {
				n := []int{1, 1, 1, 2, 2, 3, 1 + rng.Intn(40)}[rng.Intn(7)]
				ids := make([]uint16, n)
				for j := range ids {
					ids[j] = uint16(rng.Intn(1 << w))
				}
				rules[i] = PRule{Switches: ids, Bitmap: bitmap.FromPorts(width, rng.Intn(width))}
			}
			var def *bitmap.Bitmap
			if trial%3 == 0 {
				d := bitmap.FromPorts(width, 0)
				def = &d
			}
			stream, err := Encode(l, downstreamHeader(tag, rules, def))
			if err != nil {
				t.Fatal(err)
			}
			_, next, err := SkipSection(l, stream)
			if err != nil {
				t.Fatal(err)
			}
			checkDownstreamReaders(t, l, tag, stream, next)
		}
	}
}

// paddedIDStreams are d-spine and d-leaf sections of the paper's example
// layout (2- and 3-bit identifiers) in each of which one p-rule has a
// padding bit of its identifier block set: a rule of one, of two and of
// three identifiers, ahead of the rule naming the identifier asked for
// and behind it (the per-hop reader's test and skip loops and its
// general path).
func paddedIDStreams(l Layout) [][]byte {
	var out [][]byte
	for _, tag := range []byte{TagDSpine, TagDLeaf} {
		width, _, _ := downstreamWidths(l, tag)
		bm := bitmap.FromPorts(width, 0)
		rules := []PRule{{Switches: []uint16{1}, Bitmap: bm}, {Switches: []uint16{2, 3}, Bitmap: bm}, {Switches: []uint16{0, 1, 2}, Bitmap: bm}}
		for bad := range rules {
			stream, err := Encode(l, downstreamHeader(tag, rules, nil))
			if err != nil {
				panic(err)
			}
			off := 2
			for i := 0; i < bad; i++ {
				off += 1 + idBlockLen(len(rules[i].Switches), uint(l.IdentifierBits(tag))) + bitmap.ByteLen(width)
			}
			stream[off+idBlockLen(len(rules[bad].Switches), uint(l.IdentifierBits(tag)))] |= 1 // lowest bit of the block's last byte
			out = append(out, stream)
		}
	}
	return out
}

// TestBothReadersRefuseIDPadding: a set padding bit in an identifier
// block is refused by the cold reader, for every section and rule shape,
// and by the per-hop reader whichever switch reads the section.
func TestBothReadersRefuseIDPadding(t *testing.T) {
	l := paperLayout()
	for i, stream := range paddedIDStreams(l) {
		if _, _, err := Decode(l, stream); !errors.Is(err, errIDPadding) {
			t.Fatalf("stream %d: Decode: %v", i, err)
		}
		if _, _, err := StreamInfo(l, stream); !errors.Is(err, errIDPadding) {
			t.Fatalf("stream %d: StreamInfo: %v", i, err)
		}
		for id := uint16(0); id <= 1<<l.IdentifierBits(stream[0]); id++ {
			if _, err := ConsumeDownstreamInto(l, stream[0], id, stream, new(DownstreamMatch)); !errors.Is(err, errIDPadding) {
				t.Fatalf("stream %d id %d: ConsumeDownstreamInto: %v", i, id, err)
			}
		}
	}
}

// TestColdReaderRefusesPortPadding: a set padding bit in a port bitmap,
// of a p-rule or of the default, is refused by every cold read of the
// section: the structural walk, Decode and CopyDownstream.
func TestColdReaderRefusesPortPadding(t *testing.T) {
	l := paperLayout() // 2 leaves per pod: a d-spine bitmap has 6 padding bits
	bm := bitmap.FromPorts(l.SpineDown, 1)
	rules := []PRule{{Switches: []uint16{1}, Bitmap: bm}, {Switches: []uint16{2, 3}, Bitmap: bm}}
	section, err := AppendDownstream(nil, l, TagDSpine, rules, &bm, KeepAll)
	if err != nil {
		t.Fatal(err)
	}
	// tag, count; count, ids, bitmap; count, ids, bitmap; presence, bitmap
	for _, at := range []int{4, 7, 9} {
		if section[at] != 0x02 {
			t.Fatalf("byte %d of % x is not a bitmap", at, section)
		}
		padded := bytes.Clone(section)
		padded[at] |= 0x80
		stream := append(bytes.Clone(padded), TagEnd)
		if _, _, err := StreamInfo(l, stream); !errors.Is(err, errBitmapPadding) {
			t.Fatalf("bitmap at byte %d: StreamInfo: %v", at, err)
		}
		if _, _, err := Decode(l, stream); err == nil {
			t.Fatalf("bitmap at byte %d: Decode accepts it", at)
		}
		if _, err := CopyDownstream(nil, l, padded, KeepAll); !errors.Is(err, errBitmapPadding) {
			t.Fatalf("bitmap at byte %d: CopyDownstream: %v", at, err)
		}
	}
}

// TestAppendDownstreamRefusesWideIdentifier: an identifier the layout's
// width cannot carry is an error, not a truncation.
func TestAppendDownstreamRefusesWideIdentifier(t *testing.T) {
	l := paperLayout() // 4 pods: 2-bit pod IDs; 8 leaves: 3-bit leaf IDs
	for _, c := range []struct {
		tag      byte
		fits, no uint16
	}{{TagDSpine, 3, 4}, {TagDLeaf, 7, 8}} {
		width, _, _ := downstreamWidths(l, c.tag)
		rule := func(id uint16) []PRule {
			return []PRule{{Switches: []uint16{1, id}, Bitmap: bitmap.FromPorts(width, 0)}}
		}
		if _, err := AppendDownstream(nil, l, c.tag, rule(c.fits), nil, KeepAll); err != nil {
			t.Fatalf("tag %#x: identifier %d refused: %v", c.tag, c.fits, err)
		}
		if _, err := AppendDownstream(nil, l, c.tag, rule(c.no), nil, KeepAll); err == nil {
			t.Fatalf("tag %#x: identifier %d accepted at %d bits", c.tag, c.no, l.IdentifierBits(c.tag))
		}
		if _, err := Encode(l, downstreamHeader(c.tag, rule(c.no), nil)); err == nil {
			t.Fatalf("tag %#x: Encode accepted identifier %d", c.tag, c.no)
		}
	}
}

// TestLayoutIdentifierBits pins the derived widths: ⌈log2 pods⌉ and
// ⌈log2 leaves⌉, at least one bit.
func TestLayoutIdentifierBits(t *testing.T) {
	for _, c := range []struct {
		name        string
		cfg         topology.Config
		spine, leaf int
	}{
		{"paper example", topology.PaperExample(), 2, 3},
		{"bench", benchTopo, 3, 7},
		{"udp", udpTopo, 2, 4},
		{"facebook", topology.FacebookFabric(), 4, 10},
		{"two-tier", topology.Config{Pods: 1, SpinesPerPod: 4, LeavesPerPod: 24, HostsPerLeaf: 8, CoresPerPlane: 1}, 1, 5},
	} {
		l := LayoutFor(topology.MustNew(c.cfg))
		if got := [2]int{l.IdentifierBits(TagDSpine), l.IdentifierBits(TagDLeaf)}; got != [2]int{c.spine, c.leaf} {
			t.Errorf("%s: identifier bits %v, want [%d %d]", c.name, got, c.spine, c.leaf)
		}
		if l.IdentifierBits(TagCore) != 0 {
			t.Errorf("%s: core section has identifiers", c.name)
		}
	}
	if err := (Layout{LeafDown: 1, LeafUp: 1, SpineDown: 1, SpineUp: 1, CoreDown: 4}).Validate(); err == nil {
		t.Error("a layout without derived identifier widths validated")
	}
}

// The benchmark's fabrics (benchmark/inputs.go).
var (
	benchTopo = topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4}
	udpTopo   = topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 4, HostsPerLeaf: 8, CoresPerPlane: 2}
)

// TestEncodedSizeExact: EncodedSize is the length AppendEncode writes,
// rule by rule rounded, at the benchmark's two fabrics and the paper's;
// and DownstreamSize bounds every section of as many rules listing at
// most perRule identifiers, exactly when each lists that many.
func TestEncodedSizeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []topology.Config{benchTopo, udpTopo, topology.FacebookFabric()} {
		l := LayoutFor(topology.MustNew(cfg))
		for i := 0; i < 500; i++ {
			h := randomHeader(l, rng)
			wire, err := AppendEncode(nil, l, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(wire) != EncodedSize(l, h) {
				t.Fatalf("%+v: EncodedSize %d, AppendEncode %d", cfg, EncodedSize(l, h), len(wire))
			}
			for _, s := range []struct {
				tag   byte
				rules []PRule
				def   *bitmap.Bitmap
			}{{TagDSpine, h.DSpine, h.DSpineDefault}, {TagDLeaf, h.DLeaf, h.DLeafDefault}} {
				section, err := AppendDownstream(nil, l, s.tag, s.rules, s.def, KeepAll)
				if err != nil {
					t.Fatal(err)
				}
				most, uniform := 0, true
				for _, r := range s.rules {
					uniform = uniform && (most == 0 || len(r.Switches) == most)
					most = max(most, len(r.Switches))
				}
				bound := DownstreamSize(l, s.tag, len(s.rules), most, s.def != nil)
				if len(section) > bound || (uniform && len(section) != bound) {
					t.Fatalf("%+v tag %#x: section %d bytes, DownstreamSize %d (uniform %t)", cfg, s.tag, len(section), bound, uniform)
				}
			}
		}
	}
}

// TestCopyDownstreamEqualsAppendDownstream holds the section copier to
// the rule appender on seeded sections of both tags at identifier
// widths of 1 to 10 bits, with and without a default rule: copying
// AppendDownstream(rules, def, KeepAll) while leaving out omit writes
// the bytes AppendDownstream(rules, def, omit) writes, after the same
// prefix, for omit as KeepAll, as a switch a one-identifier rule names
// (the section's only rule among them, so the section is absent), as one
// identifier of a rule of several, and as a switch no rule names. The
// rule walker reads the same section back as the rules and default it
// was written from.
func TestCopyDownstreamEqualsAppendDownstream(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	prefix := []byte{TagCore, 0xa5}
	var walk RuleWalker
	for w := 1; w <= 10; w++ {
		l := idLayout(w)
		for trial := 0; trial < 80; trial++ {
			tag := []byte{TagDSpine, TagDLeaf}[trial%2]
			width, _, _ := downstreamWidths(l, tag)
			rules := make([]PRule, rng.Intn(9))
			if trial%10 == 4 {
				rules = make([]PRule, 1) // one rule, a singleton below: omitting it empties the section
			}
			named := map[uint16]bool{}
			for i := range rules {
				n := []int{1, 1, 1, 2, 3, 1 + rng.Intn(12)}[rng.Intn(6)]
				if trial%10 == 4 {
					n = 1
				}
				ids := make([]uint16, n)
				for j := range ids {
					ids[j] = uint16(rng.Intn(1 << w))
					named[ids[j]] = true
				}
				rules[i] = PRule{Switches: ids, Bitmap: bitmap.FromPorts(width, rng.Intn(width))}
			}
			var def *bitmap.Bitmap
			if trial%3 == 1 && trial%10 != 4 {
				d := bitmap.FromPorts(width, rng.Intn(width))
				def = &d
			}
			section, err := AppendDownstream(nil, l, tag, rules, def, KeepAll)
			if err != nil {
				t.Fatal(err)
			}

			omits := []int{KeepAll}
			for _, r := range rules {
				if len(r.Switches) == 1 {
					omits = append(omits, int(r.Switches[0]))
					break
				}
			}
			for _, r := range rules {
				if len(r.Switches) > 1 {
					omits = append(omits, int(r.Switches[rng.Intn(len(r.Switches))]))
					break
				}
			}
			for id := 0; id < 1<<w; id++ {
				if !named[uint16(id)] {
					omits = append(omits, id)
					break
				}
			}
			for _, omit := range omits {
				want, err := AppendDownstream(append([]byte(nil), prefix...), l, tag, rules, def, omit)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CopyDownstream(append([]byte(nil), prefix...), l, section, omit)
				if err != nil {
					t.Fatalf("w=%d trial %d omit %d: %v", w, trial, omit, err)
				}
				if string(got) != string(want) {
					t.Fatalf("w=%d trial %d omit %d: copied\n% x\nappended\n% x", w, trial, omit, got, want)
				}
				if trial%10 == 4 && omit == int(rules[0].Switches[0]) && len(got) != len(prefix) {
					t.Fatalf("w=%d trial %d: omitting the only rule left %d section bytes", w, trial, len(got)-len(prefix))
				}
			}

			walk.Reset(l, section)
			for i := 0; walk.Next(); i++ {
				ids := make([]uint16, walk.N)
				for j := range ids {
					ids[j] = walk.Switch(j)
				}
				if i >= len(rules) || !equalIDs(ids, rules[i].Switches) ||
					string(walk.Ports) != string(rules[i].Bitmap.AppendWire(nil)) {
					t.Fatalf("w=%d trial %d: walked rule %d as %v %x", w, trial, i, ids, walk.Ports)
				}
			}
			ports, rest, err := walk.End()
			if err != nil || len(rest) != 0 || (ports != nil) != (def != nil) || (ports != nil && string(ports) != string(def.AppendWire(nil))) {
				t.Fatalf("w=%d trial %d: walked default %x with %d bytes after it, err %v", w, trial, ports, len(rest), err)
			}
		}
	}
	section, err := AppendDownstream(nil, idLayout(4), TagDLeaf, []PRule{{Switches: []uint16{3}, Bitmap: bitmap.FromPorts(8, 1)}}, nil, KeepAll)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(section); cut++ {
		if got, err := CopyDownstream(prefix, idLayout(4), section[:cut], KeepAll); err == nil || len(got) != len(prefix) {
			t.Fatalf("a section cut to %d of %d bytes was copied: % x, %v", cut, len(section), got, err)
		}
	}
}
