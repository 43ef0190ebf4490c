package header

import (
	"math/rand"
	"testing"
	"testing/quick"

	"elmo/internal/bitmap"
	"elmo/internal/topology"
)

func paperLayout() Layout {
	return LayoutFor(topology.MustNew(topology.PaperExample()))
}

// paperHeader builds the header of Fig. 3b (sender Ha, R=0, one
// default leaf rule) on the paper's example topology.
func paperHeader() *Header {
	l := paperLayout()
	uleaf := &UpstreamRule{
		Down:      bitmap.FromPorts(l.LeafDown, 1), // deliver to Hb
		Up:        bitmap.New(l.LeafUp),
		Multipath: true,
	}
	uspine := &UpstreamRule{
		Down:      bitmap.New(l.SpineDown),
		Up:        bitmap.New(l.SpineUp),
		Multipath: true,
	}
	core := bitmap.FromPorts(l.CoreDown, 2, 3) // pods P2, P3
	dspineDef := bitmap.FromPorts(l.SpineDown, 0, 1)
	dleafDef := bitmap.FromPorts(l.LeafDown, 7)
	return &Header{
		ULeaf:  uleaf,
		USpine: uspine,
		Core:   &core,
		DSpine: []PRule{
			{Switches: []uint16{2}, Bitmap: bitmap.FromPorts(l.SpineDown, 1)}, // P2 -> L5
		},
		DSpineDefault: &dspineDef,
		DLeaf: []PRule{
			{Switches: []uint16{0, 6}, Bitmap: bitmap.FromPorts(l.LeafDown, 0, 1)},
			{Switches: []uint16{5}, Bitmap: bitmap.FromPorts(l.LeafDown, 2)},
		},
		DLeafDefault: &dleafDef,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := paperLayout()
	h := paperHeader()
	wire, err := Encode(l, h)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(wire) != EncodedSize(l, h) {
		t.Fatalf("EncodedSize = %d, wire = %d", EncodedSize(l, h), len(wire))
	}
	dec, n, err := Decode(l, wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(wire) {
		t.Fatalf("decode consumed %d of %d", n, len(wire))
	}
	assertHeadersEqual(t, h, dec)
}

func assertHeadersEqual(t *testing.T, want, got *Header) {
	t.Helper()
	cmpUp := func(name string, a, b *UpstreamRule) {
		if (a == nil) != (b == nil) {
			t.Fatalf("%s presence mismatch", name)
		}
		if a == nil {
			return
		}
		if !a.Down.Equal(b.Down) || !a.Up.Equal(b.Up) || a.Multipath != b.Multipath {
			t.Fatalf("%s mismatch: %+v vs %+v", name, a, b)
		}
	}
	cmpUp("ULeaf", want.ULeaf, got.ULeaf)
	cmpUp("USpine", want.USpine, got.USpine)
	if (want.Core == nil) != (got.Core == nil) {
		t.Fatal("Core presence mismatch")
	}
	if want.Core != nil && !want.Core.Equal(*got.Core) {
		t.Fatalf("Core mismatch: %s vs %s", want.Core, got.Core)
	}
	cmpRules := func(name string, a, b []PRule) {
		if len(a) != len(b) {
			t.Fatalf("%s rule count %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if len(a[i].Switches) != len(b[i].Switches) {
				t.Fatalf("%s[%d] switch count mismatch", name, i)
			}
			for j := range a[i].Switches {
				if a[i].Switches[j] != b[i].Switches[j] {
					t.Fatalf("%s[%d] switch %d mismatch", name, i, j)
				}
			}
			if !a[i].Bitmap.Equal(b[i].Bitmap) {
				t.Fatalf("%s[%d] bitmap mismatch", name, i)
			}
		}
	}
	cmpRules("DSpine", want.DSpine, got.DSpine)
	cmpRules("DLeaf", want.DLeaf, got.DLeaf)
	cmpDef := func(name string, a, b *bitmap.Bitmap) {
		if (a == nil) != (b == nil) {
			t.Fatalf("%s default presence mismatch", name)
		}
		if a != nil && !a.Equal(*b) {
			t.Fatalf("%s default mismatch", name)
		}
	}
	cmpDef("DSpine", want.DSpineDefault, got.DSpineDefault)
	cmpDef("DLeaf", want.DLeafDefault, got.DLeafDefault)
}

func TestEmptyHeader(t *testing.T) {
	l := paperLayout()
	wire, err := Encode(l, &Header{})
	if err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if len(wire) != 1 || wire[0] != TagEnd {
		t.Fatalf("empty header wire = %v", wire)
	}
	dec, _, err := Decode(l, wire)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if dec.ULeaf != nil || dec.Core != nil || len(dec.DLeaf) != 0 {
		t.Fatal("empty header decoded non-empty")
	}
}

func TestEncodeRejectsBadWidths(t *testing.T) {
	l := paperLayout()
	badCore := bitmap.New(l.CoreDown + 1)
	if _, err := Encode(l, &Header{Core: &badCore}); err == nil {
		t.Fatal("expected width error for core")
	}
	if _, err := Encode(l, &Header{DLeaf: []PRule{{Switches: []uint16{1}, Bitmap: bitmap.New(3)}}}); err == nil {
		t.Fatal("expected width error for leaf rule")
	}
	if _, err := Encode(l, &Header{DLeaf: []PRule{{Bitmap: bitmap.New(l.LeafDown)}}}); err == nil {
		t.Fatal("expected error for rule without switches")
	}
	if _, err := Encode(l, &Header{ULeaf: &UpstreamRule{Down: bitmap.New(1), Up: bitmap.New(l.LeafUp)}}); err == nil {
		t.Fatal("expected width error for upstream rule")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	l := paperLayout()
	good, err := Encode(l, paperHeader())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"no tagend":    good[:len(good)-1],
		"unknown tag":  {0x77, TagEnd},
		"out of order": append([]byte{TagCore, 0x00}, append([]byte{TagULeaf}, good[1:]...)...),
		"truncated":    good[:5],
	}
	for name, data := range cases {
		if _, _, err := Decode(l, data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestDecodeRejectsDuplicateSection(t *testing.T) {
	l := paperLayout()
	core := bitmap.FromPorts(l.CoreDown, 1)
	wire, err := Encode(l, &Header{Core: &core})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the core section: tags must strictly increase.
	dup := append([]byte{}, wire[:len(wire)-1]...)
	dup = append(dup, wire[:len(wire)-1]...)
	dup = append(dup, TagEnd)
	if _, _, err := Decode(l, dup); err == nil {
		t.Fatal("expected error for duplicate section")
	}
}

func TestConsumeUpstreamPopsSection(t *testing.T) {
	l := paperLayout()
	h := paperHeader()
	wire, err := Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	var rule UpstreamRule
	rest, err := ConsumeUpstreamInto(l, TagULeaf, wire, &rule)
	if err != nil {
		t.Fatalf("consume u-leaf: %v", err)
	}
	if !rule.Multipath || !rule.Down.Test(1) || rule.Down.PopCount() != 1 {
		t.Fatalf("u-leaf rule = %+v", rule)
	}
	if len(rest) >= len(wire) {
		t.Fatal("popping did not shrink the stream")
	}
	// The popped stream must decode as a header without ULeaf.
	dec, _, err := Decode(l, rest)
	if err != nil {
		t.Fatalf("decode popped: %v", err)
	}
	if dec.ULeaf != nil {
		t.Fatal("ULeaf still present after pop")
	}
	if dec.USpine == nil || dec.Core == nil {
		t.Fatal("later sections lost by pop")
	}
}

func TestConsumeCore(t *testing.T) {
	l := paperLayout()
	h := paperHeader()
	wire, _ := Encode(l, h)
	var rule UpstreamRule
	rest, err := ConsumeUpstreamInto(l, TagULeaf, wire, &rule)
	if err != nil {
		t.Fatal(err)
	}
	rest, err = ConsumeUpstreamInto(l, TagUSpine, rest, &rule)
	if err != nil {
		t.Fatal(err)
	}
	var pods bitmap.Bitmap
	rest, err = ConsumeCoreInto(l, rest, &pods)
	if err != nil {
		t.Fatalf("consume core: %v", err)
	}
	if !pods.Test(2) || !pods.Test(3) || pods.PopCount() != 2 {
		t.Fatalf("core pods = %s", pods)
	}
	dec, _, err := Decode(l, rest)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Core != nil || len(dec.DSpine) != 1 {
		t.Fatal("core pop corrupted stream")
	}
}

// downstreamOnly encodes just the downstream sections of h.
func downstreamOnly(t *testing.T, l Layout, h *Header) []byte {
	t.Helper()
	wire, err := Encode(l, &Header{
		DSpine: h.DSpine, DSpineDefault: h.DSpineDefault,
		DLeaf: h.DLeaf, DLeafDefault: h.DLeafDefault,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestConsumeDownstreamMatch(t *testing.T) {
	l := paperLayout()
	h := paperHeader()
	wire := downstreamOnly(t, l, h)

	// Pod 2 matches the first spine rule.
	var m DownstreamMatch
	rest, err := ConsumeDownstreamInto(l, TagDSpine, 2, wire, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Matched || !m.Bitmap.Test(1) || m.Bitmap.PopCount() != 1 {
		t.Fatalf("pod 2 match = %+v", m)
	}
	if !m.HasDefault {
		t.Fatal("default not reported")
	}
	// Pod 0 does not match; default present.
	var m0 DownstreamMatch
	if _, err := ConsumeDownstreamInto(l, TagDSpine, 0, wire, &m0); err != nil {
		t.Fatal(err)
	}
	if m0.Matched {
		t.Fatal("pod 0 unexpectedly matched")
	}
	if !m0.HasDefault || m0.Default.PopCount() != 2 {
		t.Fatalf("pod 0 default = %+v", m0)
	}
	// After popping the spine section, leaf 6 matches the shared rule.
	var mLeaf DownstreamMatch
	rest2, err := ConsumeDownstreamInto(l, TagDLeaf, 6, rest, &mLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if !mLeaf.Matched || !mLeaf.Bitmap.Test(0) || !mLeaf.Bitmap.Test(1) {
		t.Fatalf("leaf 6 match = %+v", mLeaf)
	}
	if tag, _ := PeekTag(rest2); tag != TagEnd {
		t.Fatalf("after leaf pop, tag = %#x, want TagEnd", tag)
	}
}

func TestConsumeDownstreamFirstMatchWins(t *testing.T) {
	l := paperLayout()
	h := &Header{
		DLeaf: []PRule{
			{Switches: []uint16{7}, Bitmap: bitmap.FromPorts(l.LeafDown, 0)},
			{Switches: []uint16{7}, Bitmap: bitmap.FromPorts(l.LeafDown, 1)},
		},
	}
	wire := downstreamOnly(t, l, h)
	var m DownstreamMatch
	if _, err := ConsumeDownstreamInto(l, TagDLeaf, 7, wire, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Matched || !m.Bitmap.Test(0) || m.Bitmap.Test(1) {
		t.Fatal("first-match semantics violated")
	}
}

func TestSkipSectionAndStreamLen(t *testing.T) {
	l := paperLayout()
	h := paperHeader()
	wire, _ := Encode(l, h)
	n, _, err := StreamInfo(l, wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("StreamInfo = %d, want %d", n, len(wire))
	}
	tags := []byte{}
	rest := wire
	for {
		tag, r, err := SkipSection(l, rest)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, tag)
		rest = r
		if tag == TagEnd {
			break
		}
	}
	want := []byte{TagULeaf, TagUSpine, TagCore, TagDSpine, TagDLeaf, TagEnd}
	if len(tags) != len(want) {
		t.Fatalf("tags = %v, want %v", tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", tags, want)
		}
	}
}

func randomHeader(l Layout, rng *rand.Rand) *Header {
	randBM := func(w int) bitmap.Bitmap {
		b := bitmap.New(w)
		for i := 0; i < w; i++ {
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		return b
	}
	h := &Header{}
	if rng.Intn(2) == 1 {
		h.ULeaf = &UpstreamRule{Down: randBM(l.LeafDown), Up: randBM(l.LeafUp), Multipath: rng.Intn(2) == 1}
	}
	if rng.Intn(2) == 1 {
		h.USpine = &UpstreamRule{Down: randBM(l.SpineDown), Up: randBM(l.SpineUp), Multipath: rng.Intn(2) == 1}
	}
	if rng.Intn(2) == 1 {
		c := randBM(l.CoreDown)
		h.Core = &c
	}
	genRules := func(width, maxID int) []PRule {
		n := rng.Intn(4)
		rules := make([]PRule, 0, n)
		for i := 0; i < n; i++ {
			k := rng.Intn(6) + 1 // one and two identifiers take the per-hop fast loops, more the general path
			ids := make([]uint16, k)
			for j := range ids {
				ids[j] = uint16(rng.Intn(maxID))
			}
			rules = append(rules, PRule{Switches: ids, Bitmap: randBM(width)})
		}
		return rules
	}
	h.DSpine = genRules(l.SpineDown, l.CoreDown)
	if rng.Intn(2) == 1 {
		d := randBM(l.SpineDown)
		h.DSpineDefault = &d
	}
	h.DLeaf = genRules(l.LeafDown, l.CoreDown*l.SpineDown)
	if rng.Intn(2) == 1 {
		d := randBM(l.LeafDown)
		h.DLeafDefault = &d
	}
	return h
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	layouts := []Layout{
		paperLayout(),
		LayoutFor(topology.MustNew(topology.FacebookFabric())),
	}
	f := func(seed int64, which bool) bool {
		l := layouts[0]
		if which {
			l = layouts[1]
		}
		rng := rand.New(rand.NewSource(seed))
		h := randomHeader(l, rng)
		wire, err := Encode(l, h)
		if err != nil {
			return false
		}
		if len(wire) != EncodedSize(l, h) {
			return false
		}
		dec, n, err := Decode(l, wire)
		if err != nil || n != len(wire) {
			return false
		}
		re, err := Encode(l, dec)
		if err != nil || len(re) != len(wire) {
			return false
		}
		for i := range re {
			if re[i] != wire[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Fuzz-ish: random bytes must produce an error or a header, never a
	// panic or an out-of-bounds read.
	l := paperLayout()
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Decode(l, data)
		StreamInfo(l, data)
		ConsumeDownstreamInto(l, TagDLeaf, 3, data, new(DownstreamMatch))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodePaperHeader(b *testing.B) {
	l := paperLayout()
	h := paperHeader()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEncode(buf[:0], l, h)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsumeDownstreamLeaf(b *testing.B) {
	l := LayoutFor(topology.MustNew(topology.FacebookFabric()))
	rules := make([]PRule, 30)
	for i := range rules {
		rules[i] = PRule{Switches: []uint16{uint16(i * 7)}, Bitmap: bitmap.FromPorts(l.LeafDown, i%l.LeafDown)}
	}
	wire, err := Encode(l, &Header{DLeaf: rules})
	if err != nil {
		b.Fatal(err)
	}
	var m DownstreamMatch // warm after the first iteration: 0 allocs/op
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Worst case: match the last rule.
		if _, err := ConsumeDownstreamInto(l, TagDLeaf, 29*7, wire, &m); err != nil {
			b.Fatal(err)
		}
	}
}
