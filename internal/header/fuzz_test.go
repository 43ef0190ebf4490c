package header

import (
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

func FuzzScanPipeline(f *testing.F) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The hot-path scanners must agree with Decode about validity.
		if n, _, err := StreamInfo(l, data); err == nil {
			if _, _, derr := Decode(l, data[:n]); derr != nil {
				// StreamInfo is purely structural; Decode may still
				// reject semantic violations (tag order). That is the
				// only allowed divergence.
				_ = derr
			}
		}
		ConsumeDownstream(l, TagDLeaf, 5, data)
		ConsumeDownstream(l, TagDSpine, 1, data)
		var rule UpstreamRule
		ConsumeUpstreamInto(l, TagULeaf, data, &rule)
		ConsumeCoreInto(l, data, &rule.Down)
		ExtractINT(l, data)
		AppendINTRecordTo(l, nil, data, INTRecord{Tier: 1, ID: 2, Meta: 3})
	})
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
