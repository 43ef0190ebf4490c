package bitmap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	for _, w := range []int{0, 1, 7, 8, 63, 64, 65, 576} {
		b := New(w)
		if b.Width() != w {
			t.Errorf("width %d: got %d", w, b.Width())
		}
		if !b.IsEmpty() {
			t.Errorf("width %d: new bitmap not empty", w)
		}
		if b.PopCount() != 0 {
			t.Errorf("width %d: popcount %d", w, b.PopCount())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative width")
		}
	}()
	New(-1)
}

func TestSetTestClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.PopCount(); got != 8 {
		t.Fatalf("popcount = %d, want 8", got)
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := b.PopCount(); got != 7 {
		t.Fatalf("popcount = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(8)
	for name, fn := range map[string]func(){
		"Set":   func() { b.Set(8) },
		"Test":  func() { b.Test(-1) },
		"Clear": func() { b.Clear(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFromPorts(t *testing.T) {
	b := FromPorts(48, 0, 5, 47)
	if b.PopCount() != 3 || !b.Test(0) || !b.Test(5) || !b.Test(47) {
		t.Fatalf("FromPorts wrong contents: %s", b)
	}
}

func TestOrAndNot(t *testing.T) {
	a := FromPorts(10, 1, 3, 5)
	b := FromPorts(10, 3, 4)
	or := a.Or(b)
	want := FromPorts(10, 1, 3, 4, 5)
	if !or.Equal(want) {
		t.Fatalf("Or = %s, want %s", or, want)
	}
	// Or must not mutate operands.
	if a.PopCount() != 3 || b.PopCount() != 2 {
		t.Fatal("Or mutated an operand")
	}
	an := a.AndNot(b)
	if !an.Equal(FromPorts(10, 1, 5)) {
		t.Fatalf("AndNot = %s", an)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width mismatch")
		}
	}()
	New(8).Or(New(9))
}

func TestHammingDistance(t *testing.T) {
	a := FromPorts(70, 0, 1, 69)
	b := FromPorts(70, 1, 2)
	if d := a.HammingDistance(b); d != 3 {
		t.Fatalf("distance = %d, want 3", d)
	}
	if d := a.HammingDistance(a); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}
}

func TestContains(t *testing.T) {
	a := FromPorts(10, 1, 3, 5)
	if !a.Contains(FromPorts(10, 1, 5)) {
		t.Fatal("Contains subset = false")
	}
	if a.Contains(FromPorts(10, 1, 2)) {
		t.Fatal("Contains non-subset = true")
	}
	if !a.Contains(New(10)) {
		t.Fatal("Contains empty = false")
	}
}

func TestPortsAndForEach(t *testing.T) {
	want := []int{0, 7, 8, 63, 64, 100}
	b := FromPorts(128, want...)
	got := b.Ports()
	if len(got) != len(want) {
		t.Fatalf("Ports = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ports = %v, want %v", got, want)
		}
	}
	var fe []int
	b.ForEach(func(p int) { fe = append(fe, p) })
	for i := range want {
		if fe[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", fe, want)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, w := range []int{1, 7, 8, 9, 48, 63, 64, 65, 576} {
		b := New(w)
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < w; i++ {
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		wire := b.AppendWire(nil)
		if len(wire) != ByteLen(w) {
			t.Fatalf("width %d: wire len %d, want %d", w, len(wire), ByteLen(w))
		}
		dec, n, err := FromWire(w, wire)
		if err != nil {
			t.Fatalf("width %d: decode: %v", w, err)
		}
		if n != len(wire) {
			t.Fatalf("width %d: consumed %d, want %d", w, n, len(wire))
		}
		if !dec.Equal(b) {
			t.Fatalf("width %d: roundtrip %s != %s", w, dec, b)
		}
	}
}

func TestFromWireErrors(t *testing.T) {
	if _, _, err := FromWire(16, []byte{0xff}); err == nil {
		t.Fatal("expected short-buffer error")
	}
	// Width 4 occupies one byte; upper nibble is padding and must be 0.
	if _, _, err := FromWire(4, []byte{0xf0}); err == nil {
		t.Fatal("expected padding-bit error")
	}
	if _, _, err := FromWire(4, []byte{0x0f}); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
}

func TestString(t *testing.T) {
	b := FromPorts(4, 1, 3)
	if s := b.String(); s != "0101" {
		t.Fatalf("String = %q, want 0101", s)
	}
}

// randomBitmap builds a width-w bitmap from a quick-generated seed.
func randomBitmap(w int, seed int64) Bitmap {
	rng := rand.New(rand.NewSource(seed))
	b := New(w)
	for i := 0; i < w; i++ {
		if rng.Intn(2) == 1 {
			b.Set(i)
		}
	}
	return b
}

func TestQuickWireRoundTrip(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		w := int(wRaw)%200 + 1
		b := randomBitmap(w, seed)
		dec, _, err := FromWire(w, b.AppendWire(nil))
		return err == nil && dec.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrIsUpperBound(t *testing.T) {
	// a|b contains both a and b; Hamming distance from a to a|b equals
	// popcount(b &^ a) — the property Algorithm 1's R-bound relies on.
	f := func(s1, s2 int64, wRaw uint8) bool {
		w := int(wRaw)%100 + 1
		a, b := randomBitmap(w, s1), randomBitmap(w, s2)
		or := a.Or(b)
		if !or.Contains(a) || !or.Contains(b) {
			return false
		}
		return a.HammingDistance(or) == b.AndNot(a).PopCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPopCountAfterOr(t *testing.T) {
	// |a ∪ b| = |a| + |b \ a|
	f := func(s1, s2 int64, wRaw uint8) bool {
		w := int(wRaw)%100 + 1
		a, b := randomBitmap(w, s1), randomBitmap(w, s2)
		return a.Or(b).PopCount() == a.PopCount()+b.AndNotCount(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOrInPlace576(b *testing.B) {
	x := randomBitmap(576, 1)
	y := randomBitmap(576, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.OrInPlace(y)
	}
}

func BenchmarkAppendWire48(b *testing.B) {
	x := randomBitmap(48, 3)
	buf := make([]byte, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = x.AppendWire(buf[:0])
	}
}

// randBits returns a bitmap of the given width with each bit set with
// probability 1/2.
func randBits(rng *rand.Rand, width int) Bitmap {
	b := New(width)
	for i := 0; i < width; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return b
}

// The fused AndNotCount must agree with the compositional operation it
// replaces, across widths straddling word boundaries.
func TestFusedKernelsMatchCompositional(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{0, 1, 7, 8, 63, 64, 65, 127, 128, 200, 576} {
		for trial := 0; trial < 20; trial++ {
			a := randBits(rng, w)
			b := randBits(rng, w)

			if got, want := a.AndNotCount(b), a.AndNot(b).PopCount(); got != want {
				t.Fatalf("width %d: AndNotCount = %d, want %d", w, got, want)
			}
		}
	}
}

func TestResetAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var b Bitmap
	for _, w := range []int{64, 5, 200, 0, 128, 65} {
		src := randBits(rng, w)
		b.CopyFrom(src)
		if !b.Equal(src) {
			t.Fatalf("width %d: CopyFrom mismatch", w)
		}
		// Mutating the copy must not touch the source.
		if w > 0 {
			before := src.Test(0)
			if before {
				b.Clear(0)
			} else {
				b.Set(0)
			}
			if src.Test(0) != before {
				t.Fatal("CopyFrom aliased the source")
			}
		}
		b.Reset(w)
		if b.Width() != w || !b.IsEmpty() {
			t.Fatalf("Reset(%d): width=%d empty=%t", w, b.Width(), b.IsEmpty())
		}
	}
}

// Bitmaps carved from one slab start empty whatever the slab held, and
// none can grow into its neighbour: Set stays in its own words, and a
// wider Reset or CopyFrom moves it to storage of its own.
func TestCarveKeepsNeighbours(t *testing.T) {
	slab := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	a, rest := Carve(70, slab)
	b, rest := Carve(64, rest)
	if len(rest) != 1 || a.Width() != 70 || !a.IsEmpty() || !b.IsEmpty() {
		t.Fatalf("carved widths %d, %d, %d words left, empty %t %t", a.Width(), b.Width(), len(rest), a.IsEmpty(), b.IsEmpty())
	}
	a.Set(69)
	b.Set(0)
	if a.PopCount() != 1 || b.PopCount() != 1 {
		t.Fatal("a Set reached the neighbouring bitmap")
	}
	a.CopyFrom(FromPorts(200, 199))
	a.Reset(300)
	if b.PopCount() != 1 || !b.Test(0) || rest[0] != ^uint64(0) {
		t.Fatal("growing a carved bitmap overwrote the rest of its slab")
	}
	if WordLen(0) != 0 || WordLen(64) != 1 || WordLen(65) != 2 {
		t.Fatal("WordLen disagrees with the word size")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("carving past the end of the slab did not panic")
		}
	}()
	Carve(65, rest)
}

// Reset and CopyFrom must reuse storage: a warm bitmap cycled through
// same-or-smaller widths performs no allocations.
func TestResetCopyFromNoAlloc(t *testing.T) {
	src := randBits(rand.New(rand.NewSource(13)), 192)
	var b Bitmap
	b.Reset(192) // warm to max width
	allocs := testing.AllocsPerRun(100, func() {
		b.CopyFrom(src)
		b.Reset(64)
		b.Reset(192)
	})
	if allocs != 0 {
		t.Fatalf("warm Reset/CopyFrom allocated %.1f per run", allocs)
	}
}

// The word-level AppendWire must round-trip through FromWire and match
// the bit-order contract at every width.
func TestAppendWireWordLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, w := range []int{0, 1, 3, 8, 9, 16, 63, 64, 65, 71, 72, 128, 129, 576} {
		b := randBits(rng, w)
		wire := b.AppendWire(nil)
		if len(wire) != b.ByteLen() {
			t.Fatalf("width %d: wire length %d, want %d", w, len(wire), b.ByteLen())
		}
		for i := 0; i < w; i++ {
			got := wire[i/8]&(1<<uint(i%8)) != 0
			if got != b.Test(i) {
				t.Fatalf("width %d: wire bit %d = %t, want %t", w, i, got, b.Test(i))
			}
		}
		back, n, err := FromWire(w, wire)
		if err != nil || n != len(wire) {
			t.Fatalf("width %d: FromWire n=%d err=%v", w, n, err)
		}
		if !back.Equal(b) {
			t.Fatalf("width %d: round trip mismatch", w)
		}
	}
}

// referenceFromWireInto is FromWireInto as it was before it decoded
// bytes straight into words: one branch per bit. Frozen; the test below
// holds the word-level decoder to it.
func referenceFromWireInto(width int, data []byte, b *Bitmap) (int, error) {
	n := ByteLen(width)
	if len(data) < n {
		return 0, fmt.Errorf("bitmap: need %d bytes for width %d, have %d", n, width, len(data))
	}
	b.Reset(width)
	for i := 0; i < n; i++ {
		by := data[i]
		base := i * 8
		for j := 0; j < 8; j++ {
			if by&(1<<uint(j)) == 0 {
				continue
			}
			bit := base + j
			if bit >= width {
				b.Reset(width)
				return 0, fmt.Errorf("bitmap: padding bit %d set beyond width %d", bit, width)
			}
			b.words[bit/64] |= 1 << (uint(bit) % 64)
		}
	}
	return n, nil
}

// TestFromWireIntoMatchesBitwiseReference decodes, at every width
// 0…130, a clean random encoding and the same encoding with each padding
// bit (and all of them) set, a byte short, and with bytes trailing; the
// result, the count, the error text and b after an error must be the
// bit-at-a-time decoder's. Both decode into the same dirty, wider bitmap.
func TestFromWireIntoMatchesBitwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(width int, data []byte) {
		t.Helper()
		got := randBits(rng, 192)
		want := got.Clone()
		gn, gerr := FromWireInto(width, data, &got)
		wn, werr := referenceFromWireInto(width, data, &want)
		if gn != wn || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("width %d, data %x: (%d, %v), reference (%d, %v)", width, data, gn, gerr, wn, werr)
		}
		if got.Width() != want.Width() || !got.Equal(want) {
			t.Fatalf("width %d, data %x: decoded %s, reference %s", width, data, got, want)
		}
		if padded := gerr != nil && len(data) >= ByteLen(width); padded && (got.Width() != width || got.PopCount() != 0) {
			t.Fatalf("width %d, data %x: bitmap not left empty on a padding error: %s", width, data, got)
		}
	}
	for width := 0; width <= 130; width++ {
		clean := randBits(rng, width).AppendWire(nil)
		check(width, clean)
		check(width, append(append([]byte(nil), clean...), 0xff, 0x01))
		if len(clean) > 0 {
			check(width, clean[:len(clean)-1])
		}
		for bit := width; bit < 8*len(clean); bit++ {
			dirty := append([]byte(nil), clean...)
			dirty[bit/8] |= 1 << uint(bit%8)
			check(width, dirty)
			dirty[len(dirty)-1] |= 0xff << uint(width%8)
			check(width, dirty)
		}
	}
}
