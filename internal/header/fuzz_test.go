package header

import (
	"bytes"
	"errors"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/topology"
)

// Fuzz targets for the wire parsers: any byte string must produce an
// error or a valid structure — never a panic, out-of-bounds read, or
// a header that re-encodes to something that fails to parse. Run with
// `go test -fuzz FuzzDecode ./internal/header` for a real fuzzing
// session; under plain `go test` the seed corpus below runs as tests.

func fuzzSeeds(f *testing.F) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	hdrs := []*Header{
		{},
		func() *Header {
			core := bitmap.FromPorts(l.CoreDown, 1, 3)
			return &Header{Core: &core}
		}(),
		{
			ULeaf: &UpstreamRule{Down: bitmap.FromPorts(l.LeafDown, 1), Up: bitmap.New(l.LeafUp), Multipath: true},
			DLeaf: []PRule{{Switches: []uint16{3, 4}, Bitmap: bitmap.FromPorts(l.LeafDown, 0, 7)}},
		},
		{INTEnabled: true, INT: []INTRecord{{Tier: 1, ID: 9, Meta: 3}}},
	}
	for _, h := range hdrs {
		wire, err := Encode(l, h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{TagEnd})
	f.Add([]byte{0x77, 0x01, 0x02})
	f.Add([]byte{TagDLeaf, 0xff, 0x00})
	f.Add(zeroIdentifierStream(l))
	for _, s := range paddedIDStreams(l) {
		f.Add(s)
	}
}

// zeroIdentifierStream frames a d-leaf section whose one p-rule lists no
// switch: well-formed by length arithmetic alone, and a rule no switch
// can match.
func zeroIdentifierStream(l Layout) []byte {
	s := append([]byte{TagDLeaf, 1, 0}, make([]byte, bitmap.ByteLen(l.LeafDown))...)
	return append(s, 0, TagEnd)
}

func FuzzDecode(f *testing.F) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := Decode(l, data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// A successfully decoded header must re-encode and re-decode.
		wire, err := Encode(l, h)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, _, err := Decode(l, wire); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzScanPipeline holds the readers of the section stream to each
// other: the structural walk (StreamInfo, SkipSection) accepts a stream
// exactly when Decode does, tag order aside; on every downstream section
// the walk accepts, the per-hop reader ConsumeDownstreamInto finds what
// Decode decoded and pops what SkipSection pops, and a section the walk
// refuses for a set identifier padding bit the per-hop reader refuses
// too; and Seek lands on each section where the walk saw it.
func FuzzScanPipeline(f *testing.F) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	fuzzSeeds(f)
	// The downstream sections the controller's encoder writes for the
	// paper's Figure 3 group at R=0 with two leaf p-rules: two spine rules
	// and a default, a two-leaf rule, a one-leaf rule and a default.
	f.Add([]byte{TagDSpine, 2, 1, 0x00, 0x01, 1, 0x80, 0x02, 1, 0x03,
		TagDLeaf, 2, 2, 0x18, 0x03, 1, 0xa0, 0x01, 1, 0x80, TagEnd})
	f.Fuzz(func(t *testing.T, data []byte) {
		// None of these may panic on arbitrary bytes.
		var rule UpstreamRule
		ConsumeUpstreamInto(l, TagULeaf, data, &rule)
		ConsumeCoreInto(l, data, &rule.Down)
		AppendINT(nil, l, data)
		AppendINTRecordTo(l, nil, data, INTRecord{Tier: 1, ID: 2, Meta: 3})
		for tag := byte(TagEnd); tag <= TagINT+1; tag++ {
			Seek(l, data, tag)
		}

		// A set padding bit in an identifier block is refused by the
		// per-hop reader too, whichever switch reads the section.
		if tag, _ := PeekTag(data); tag == TagDSpine || tag == TagDLeaf {
			if _, err := walkDownstream(l, data, nil); errors.Is(err, errIDPadding) {
				for id := uint16(0); id <= 1<<l.IdentifierBits(tag); id++ {
					if _, err := ConsumeDownstreamInto(l, tag, id, data, new(DownstreamMatch)); err == nil {
						t.Fatalf("ConsumeDownstreamInto(%d) accepts a set identifier padding bit", id)
					}
				}
			}
		}

		n, hasINT, err := StreamInfo(l, data)
		if err != nil {
			if _, _, derr := Decode(l, data); derr == nil {
				t.Fatalf("Decode accepts a stream StreamInfo rejects: %v", err)
			}
			return
		}
		// Walk the accepted stream section by section.
		at := map[byte]int{} // tag -> offset of its section
		ordered, last := true, byte(TagEnd)
		for rest := data[:n]; ; {
			tag, next, err := SkipSection(l, rest)
			if err != nil {
				t.Fatalf("SkipSection rejects what StreamInfo accepted: %v", err)
			}
			if tag == TagEnd {
				break
			}
			if tag <= last {
				ordered = false
			}
			last = tag
			if _, dup := at[tag]; !dup {
				at[tag] = n - len(rest)
			}
			if tag == TagDSpine || tag == TagDLeaf {
				checkDownstreamReaders(t, l, tag, rest, next)
			}
			rest = next
		}
		h, dn, derr := Decode(l, data)
		if ordered != (derr == nil) {
			t.Fatalf("StreamInfo accepts, sections ordered=%t, Decode: %v", ordered, derr)
		}
		if !ordered {
			return
		}
		if dn != n || h.INTEnabled != hasINT {
			t.Fatalf("Decode consumed %d (INT %t), StreamInfo %d (INT %t)", dn, h.INTEnabled, n, hasINT)
		}
		for tag := byte(TagULeaf); tag <= TagINT; tag++ {
			rest, found, err := Seek(l, data[:n], tag)
			if err != nil {
				t.Fatalf("Seek(%#x) on an accepted stream: %v", tag, err)
			}
			off, present := at[tag]
			if found != present || (found && n-len(rest) != off) {
				t.Fatalf("Seek(%#x) = offset %d found %t, section at %d present %t", tag, n-len(rest), found, off, present)
			}
			if front := rest[0]; !found && front != TagEnd && front < tag {
				t.Fatalf("Seek(%#x) stopped before it, at tag %#x", tag, front)
			}
		}
	})
}

// checkDownstreamReaders runs the per-hop reader over one downstream
// section the cold reader accepted (stream starts at the section, next
// is what SkipSection left), once per identifier the section names and
// once for an identifier it does not.
func checkDownstreamReaders(t *testing.T, l Layout, tag byte, stream, next []byte) {
	t.Helper()
	section := append(bytes.Clone(stream[:len(stream)-len(next)]), TagEnd)
	h, _, err := Decode(l, section)
	if err != nil {
		t.Fatalf("Decode rejects a section SkipSection accepted: %v", err)
	}
	rules, def := h.DSpine, h.DSpineDefault
	if tag == TagDLeaf {
		rules, def = h.DLeaf, h.DLeafDefault
	}
	first := map[uint16]*PRule{}
	absent := uint16(0)
	for i := range rules {
		for _, id := range rules[i].Switches {
			if first[id] == nil {
				first[id] = &rules[i]
			}
			if id >= absent {
				absent = id + 1 // wraps to a named 0 only if 65535 is named; skipped below
			}
		}
	}
	ids := []uint16{absent}
	for id := range first {
		ids = append(ids, id)
	}
	var m DownstreamMatch
	for _, id := range ids {
		rest, err := ConsumeDownstreamInto(l, tag, id, stream, &m)
		if err != nil {
			t.Fatalf("ConsumeDownstreamInto(%d) rejects a section SkipSection accepted: %v", id, err)
		}
		if len(rest) != len(next) || !bytes.Equal(rest, next) {
			t.Fatalf("ConsumeDownstreamInto(%d) leaves %d bytes, SkipSection %d", id, len(rest), len(next))
		}
		want := first[id]
		if m.Matched != (want != nil) || (want != nil && !m.Bitmap.Equal(want.Bitmap)) {
			t.Fatalf("id %d: matched %t %v, Decode's first rule naming it: %+v", id, m.Matched, m.Bitmap, want)
		}
		if m.HasDefault != (def != nil) || (def != nil && !m.Default.Equal(*def)) {
			t.Fatalf("id %d: default %t %v, Decode's: %v", id, m.HasDefault, m.Default, def)
		}
		// The section copier leaves out what the rule appender leaves out.
		kept, err := AppendDownstream(nil, l, tag, rules, def, int(id))
		if err != nil {
			t.Fatalf("AppendDownstream of a decoded section: %v", err)
		}
		if got, err := CopyDownstream(nil, l, section[:len(section)-EndSize], int(id)); err != nil || !bytes.Equal(got, kept) {
			t.Fatalf("CopyDownstream omitting %d: % x (%v), AppendDownstream: % x", id, got, err, kept)
		}
	}
}

func FuzzParseOuter(f *testing.F) {
	pkt, _ := AppendOuter(nil, OuterFields{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: GroupIP(5), VNI: 9,
		ElmoVersion: Version, TTL: 64,
	}, 4)
	f.Add(append(pkt, 1, 2, 3, 4))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, payload, err := ParseOuter(data)
		if err != nil {
			return
		}
		if len(payload) > len(data) {
			t.Fatal("payload longer than frame")
		}
		// Valid outers must round-trip.
		re, err := AppendOuter(nil, fields, len(payload))
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if len(re) != OuterSize {
			t.Fatalf("outer size %d", len(re))
		}
	})
}
