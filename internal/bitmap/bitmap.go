// Package bitmap provides dense, fixed-width port bitmaps.
//
// A Bitmap is the unit of Elmo's p-rule encoding (design decision D1 in
// the paper): each p-rule carries the set of switch output ports as a
// bitmap, because that is the internal representation a switch's queue
// manager consumes to replicate a packet. Bitmaps here are fixed-width
// (the width is the switch's port count for the relevant direction) and
// are encoded on the wire as ceil(width/8) big-endian bytes.
package bitmap

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitmap is a fixed-width bitset. The zero value is an empty bitmap of
// width 0; use New to create a bitmap of a given width.
//
// Bit i corresponds to output port i. Bits at positions >= Width are
// always zero; all operations preserve this invariant.
type Bitmap struct {
	width int
	words []uint64
}

// New returns an empty bitmap able to hold width bits.
// It panics if width is negative.
func New(width int) Bitmap {
	if width < 0 {
		panic("bitmap: negative width")
	}
	return Bitmap{width: width, words: make([]uint64, WordLen(width))}
}

// WordLen returns the number of 64-bit words a bitmap of the given
// width occupies: the slab room Carve takes for it.
func WordLen(width int) int { return (width + 63) / 64 }

// Carve returns an empty bitmap of the given width over the first
// WordLen(width) words of slab, and the rest of slab. The bitmap's
// capacity ends at its last word, so Reset and CopyFrom reallocate
// rather than grow into the next bitmap carved from the same slab. It
// panics if width is negative or slab is too short.
func Carve(width int, slab []uint64) (Bitmap, []uint64) {
	if width < 0 {
		panic("bitmap: negative width")
	}
	n := WordLen(width)
	w := slab[:n:n]
	clear(w)
	return Bitmap{width: width, words: w}, slab[n:]
}

// FromPorts returns a bitmap of the given width with the listed port
// bits set. It panics if any port is out of range.
func FromPorts(width int, ports ...int) Bitmap {
	b := New(width)
	for _, p := range ports {
		b.Set(p)
	}
	return b
}

// Width reports the number of bits the bitmap holds.
func (b Bitmap) Width() int { return b.width }

// Clone returns an independent copy of b.
func (b Bitmap) Clone() Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return Bitmap{width: b.width, words: w}
}

// Set sets bit i. It panics if i is out of range.
func (b Bitmap) Set(i int) {
	b.check(i)
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear clears bit i. It panics if i is out of range.
func (b Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (b Bitmap) Test(i int) bool {
	b.check(i)
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (b Bitmap) check(i int) {
	if i < 0 || i >= b.width {
		panic(fmt.Sprintf("bitmap: bit %d out of range [0,%d)", i, b.width))
	}
}

// OrInPlace sets b = b | other. The two bitmaps must have equal width.
func (b Bitmap) OrInPlace(other Bitmap) {
	b.mustMatch(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Or returns b | other as a new bitmap. Widths must match.
func (b Bitmap) Or(other Bitmap) Bitmap {
	c := b.Clone()
	c.OrInPlace(other)
	return c
}

// AndNotCount returns PopCount(b &^ other) without materializing the
// difference bitmap. Widths must match.
func (b Bitmap) AndNotCount(other Bitmap) int {
	b.mustMatch(other)
	n := 0
	for i, w := range b.words {
		n += bits.OnesCount64(w &^ other.words[i])
	}
	return n
}

// Reset re-shapes b in place to an empty bitmap of the given width,
// reusing the existing word storage when it is large enough. It panics
// if width is negative.
func (b *Bitmap) Reset(width int) {
	if width < 0 {
		panic("bitmap: negative width")
	}
	n := WordLen(width)
	if cap(b.words) < n {
		b.words = make([]uint64, n)
	} else {
		b.words = b.words[:n]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.width = width
}

// CopyFrom sets *b to an independent copy of src, reusing b's word
// storage when possible. After CopyFrom, b has src's width and bits but
// shares no memory with it.
func (b *Bitmap) CopyFrom(src Bitmap) {
	n := len(src.words)
	if cap(b.words) < n {
		b.words = make([]uint64, n)
	} else {
		b.words = b.words[:n]
	}
	copy(b.words, src.words)
	b.width = src.width
}

// AndNot returns b &^ other as a new bitmap. Widths must match.
func (b Bitmap) AndNot(other Bitmap) Bitmap {
	b.mustMatch(other)
	c := b.Clone()
	for i, w := range other.words {
		c.words[i] &^= w
	}
	return c
}

func (b Bitmap) mustMatch(other Bitmap) {
	if b.width != other.width {
		panic(fmt.Sprintf("bitmap: width mismatch %d != %d", b.width, other.width))
	}
}

// Words exposes the backing word slice (bit i is bit i%64 of word
// i/64; bits beyond Width are zero). It is a read-only view for
// word-level consumers such as comparison and hashing — mutating it
// breaks the width invariant.
func (b Bitmap) Words() []uint64 { return b.words }

// PopCount returns the number of set bits.
func (b Bitmap) PopCount() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether no bits are set.
func (b Bitmap) IsEmpty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and other have the same width and bits.
func (b Bitmap) Equal(other Bitmap) bool {
	if b.width != other.width {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// HammingDistance returns the number of bit positions at which b and
// other differ. Widths must match.
//
// The clustering algorithm (paper §3.2) uses the distance from each
// member bitmap to the shared OR bitmap to bound redundant
// transmissions R.
func (b Bitmap) HammingDistance(other Bitmap) int {
	b.mustMatch(other)
	n := 0
	for i, w := range b.words {
		n += bits.OnesCount64(w ^ other.words[i])
	}
	return n
}

// Contains reports whether every bit set in other is also set in b.
func (b Bitmap) Contains(other Bitmap) bool {
	b.mustMatch(other)
	for i, w := range other.words {
		if w&^b.words[i] != 0 {
			return false
		}
	}
	return true
}

// Ports returns the indices of all set bits in ascending order.
func (b Bitmap) Ports() []int {
	ports := make([]int, 0, b.PopCount())
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			ports = append(ports, wi*64+tz)
			w &^= 1 << uint(tz)
		}
	}
	return ports
}

// ForEach calls fn for every set bit in ascending order. It avoids the
// allocation of Ports for hot paths.
func (b Bitmap) ForEach(fn func(port int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*64 + tz)
			w &^= 1 << uint(tz)
		}
	}
}

// ByteLen returns the number of bytes needed to encode b on the wire.
func (b Bitmap) ByteLen() int { return ByteLen(b.width) }

// ByteLen returns the wire size in bytes of a bitmap of the given width.
func ByteLen(width int) int { return (width + 7) / 8 }

// AppendWire appends the big-endian wire encoding of b to dst and
// returns the extended slice. Bit i is the (i%8)'th least significant
// bit of byte i/8, so the encoding is independent of word size.
//
// Because byte i of the encoding is exactly byte i%8 (little-endian) of
// word i/8 — bits beyond width are zero by invariant — the encoding is
// emitted a word at a time instead of a bit at a time.
func (b Bitmap) AppendWire(dst []byte) []byte {
	n := b.ByteLen()
	for wi := 0; n > 0; wi++ {
		w := b.words[wi]
		k := n
		if k > 8 {
			k = 8
		}
		for j := 0; j < k; j++ {
			dst = append(dst, byte(w>>(8*uint(j))))
		}
		n -= k
	}
	return dst
}

// FromWire decodes a bitmap of the given width from the prefix of data,
// returning the bitmap and the number of bytes consumed. It returns an
// error if data is too short or if padding bits beyond width are set
// (a malformed encoding).
func FromWire(width int, data []byte) (Bitmap, int, error) {
	var b Bitmap
	n, err := FromWireInto(width, data, &b)
	if err != nil {
		return Bitmap{}, 0, err
	}
	return b, n, nil
}

// FromWireInto is FromWire decoding into b, reusing its word storage
// when wide enough — the data-plane parse path calls it per packet and
// must not allocate once its scratch bitmaps are warm. On error b is
// left empty at the requested width.
//
// The mirror of AppendWire: byte i of the encoding is byte i%8
// (little-endian) of word i/8, so bytes go straight into words, and only
// the last byte can hold padding bits, which are checked once.
func FromWireInto(width int, data []byte, b *Bitmap) (int, error) {
	n := ByteLen(width)
	if len(data) < n {
		return 0, fmt.Errorf("bitmap: need %d bytes for width %d, have %d", n, width, len(data))
	}
	b.Reset(width)
	if r := uint(width) % 8; r != 0 {
		if pad := data[n-1] >> r; pad != 0 {
			return 0, fmt.Errorf("bitmap: padding bit %d set beyond width %d", width+bits.TrailingZeros8(pad), width)
		}
	}
	for i, by := range data[:n] {
		b.words[i/8] |= uint64(by) << (8 * (uint(i) % 8))
	}
	return n, nil
}

// String renders the bitmap as a binary string, bit 0 first, matching
// the paper's figures (e.g. "01" = port 1 only on a 2-port switch).
func (b Bitmap) String() string {
	var sb strings.Builder
	sb.Grow(b.width)
	for i := 0; i < b.width; i++ {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
