package header

import (
	"errors"
	"fmt"

	"elmo/internal/bitmap"
)

// This file is the data-plane hot path: the match-and-set parsing a
// PISA switch performs on the Elmo section stream (paper §4.1). A
// switch peeks at the front tag, consumes exactly its own layer's
// section (matching a p-rule as it scans, stopping at the first
// match), and forwards the suffix — popping is slicing, never copying.

// PeekTag returns the tag at the front of the section stream.
func PeekTag(data []byte) (byte, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("header: empty section stream")
	}
	return data[0], nil
}

// upstreamSectionLen returns the byte length of an upstream section
// body (flags + two bitmaps).
func upstreamSectionLen(downW, upW int) int {
	return 1 + bitmap.ByteLen(downW) + bitmap.ByteLen(upW)
}

// ConsumeUpstreamInto parses the upstream section with the given tag
// (TagULeaf or TagUSpine) at the front of data into r and returns the
// remaining stream (the popped header the switch forwards). It reuses
// r's bitmap storage — the data-plane fast path (dataplane.ProcessInto)
// calls it per packet with a caller-owned scratch rule and allocates
// nothing once warm. The decoded rule is valid until the next call
// with the same r.
func ConsumeUpstreamInto(l Layout, tag byte, data []byte, r *UpstreamRule) ([]byte, error) {
	downW, upW, err := upstreamWidths(l, tag)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 || data[0] != tag {
		return nil, fmt.Errorf("header: expected tag %#x at front", tag)
	}
	body := data[1:]
	need := upstreamSectionLen(downW, upW)
	if len(body) < need {
		return nil, fmt.Errorf("header: truncated upstream section")
	}
	flags := data[1]
	if flags&^upMultipathBit != 0 {
		return nil, fmt.Errorf("header: unknown upstream flags %#x", flags)
	}
	off := 2
	n, err := bitmap.FromWireInto(downW, data[off:], &r.Down)
	if err != nil {
		return nil, fmt.Errorf("header: upstream down: %w", err)
	}
	off += n
	n, err = bitmap.FromWireInto(upW, data[off:], &r.Up)
	if err != nil {
		return nil, fmt.Errorf("header: upstream up: %w", err)
	}
	off += n
	r.Multipath = flags&upMultipathBit != 0
	return data[off:], nil
}

func upstreamWidths(l Layout, tag byte) (downW, upW int, err error) {
	switch tag {
	case TagULeaf:
		return l.LeafDown, l.LeafUp, nil
	case TagUSpine:
		return l.SpineDown, l.SpineUp, nil
	default:
		return 0, 0, fmt.Errorf("header: tag %#x is not an upstream section", tag)
	}
}

// ConsumeCoreInto parses the core section at the front of data,
// decoding the pods bitmap into bm (reusing its word storage:
// allocation-free once warm) and returning the remaining stream.
func ConsumeCoreInto(l Layout, data []byte, bm *bitmap.Bitmap) ([]byte, error) {
	if len(data) == 0 || data[0] != TagCore {
		return nil, fmt.Errorf("header: expected core section at front")
	}
	n, err := bitmap.FromWireInto(l.CoreDown, data[1:], bm)
	if err != nil {
		return nil, err
	}
	return data[1+n:], nil
}

// DownstreamMatch is the result of scanning a downstream section for a
// switch's identifier, mirroring the parser metadata of §4.1: a
// matched bitmap, or a default bitmap, or neither (the switch should
// then consult its s-rule group table — NoMatch with HasDefault false).
type DownstreamMatch struct {
	// Matched is true if a p-rule listed the switch identifier;
	// Bitmap then holds its output ports.
	Matched bool
	Bitmap  bitmap.Bitmap
	// HasDefault is true if the section carries a default p-rule;
	// Default then holds its output ports. Per the paper, the default
	// applies only when no p-rule matched AND no s-rule exists.
	HasDefault bool
	Default    bitmap.Bitmap
}

// ConsumeDownstreamInto scans the downstream section with the given tag
// (TagDSpine or TagDLeaf) for the switch identifier id, decoding the
// match result into m and returning the remaining stream after popping
// the entire section (D2d: a packet visits each layer once, so the
// whole layer's section is removed when forwarding onward).
//
// The scan stops decoding bitmaps at the first matching rule; the
// remaining rules are skipped structurally (length arithmetic and the
// identifier padding check only), which is what keeps per-packet work
// bounded on a line-rate parser. It reuses m's matched/default bitmap
// storage, so the data-plane fast path calls it per packet and allocates
// nothing once warm. m is fully overwritten; the decoded match is valid
// until the next call with the same m. It is the per-hop reader of the
// downstream grammar, one fused pass on purpose; the RuleWalker is the
// cold one (DESIGN.md § Header).
//
// Rules of one and two identifiers, every rule at Kmax ≤ 2, go through
// testRules and skipRules; any other rule, and any malformed one,
// through scanRule and frameRule, the framing the RuleWalker uses.
func ConsumeDownstreamInto(l Layout, tag byte, id uint16, data []byte, m *DownstreamMatch) ([]byte, error) {
	var width int
	var w uint
	switch tag {
	case TagDSpine:
		width, w = l.SpineDown, uint(l.podIDBits)
	case TagDLeaf:
		width, w = l.LeafDown, uint(l.leafIDBits)
	default:
		return nil, fmt.Errorf("header: tag %#x is not a downstream section", tag)
	}
	if len(data) < 2 || data[0] != tag {
		return nil, fmt.Errorf("header: expected tag %#x at front", tag)
	}
	if w-1 >= maxIDBits {
		return nil, errIDWidth
	}
	bmLen := bitmap.ByteLen(width)
	off, left := 2, int(data[1]) // left: rules not yet read
	m.Matched, m.HasDefault = false, false
	// Test rules until one names id (none names an id wider than w)…
	hitEnd := 0 // end of the first rule naming id
	for left > 0 && uint(id)>>w == 0 {
		if off, left, hitEnd = testRules(data, off, left, &idShapes[w], bmLen, id); hitEnd != 0 || left == 0 {
			break
		}
		end, hit, err := scanRule(data, off, w, bmLen, id)
		if err != nil {
			return nil, fmt.Errorf("header: rule %d: %w", int(data[1])-left, err)
		}
		if hit {
			hitEnd = end
			break
		}
		off, left = end, left-1
	}
	if hitEnd != 0 {
		if _, err := bitmap.FromWireInto(width, data[hitEnd-bmLen:hitEnd], &m.Bitmap); err != nil {
			return nil, fmt.Errorf("header: rule %d bitmap: %w", int(data[1])-left, err)
		}
		m.Matched = true
		off, left = hitEnd, left-1
	}
	// …then skip the rest.
	for left > 0 {
		if off, left = skipRules(data, off, left, &idShapes[w], bmLen); left == 0 {
			break
		}
		end, err := frameRule(data, off, w, bmLen)
		if err != nil {
			return nil, fmt.Errorf("header: rule %d: %w", int(data[1])-left, err)
		}
		off, left = end, left-1
	}
	if off >= len(data) {
		return nil, fmt.Errorf("header: truncated default-presence byte")
	}
	hasDef := data[off]
	off++
	if hasDef > 1 {
		return nil, fmt.Errorf("header: bad default-presence byte %#x", hasDef)
	}
	if hasDef == 1 {
		n, err := bitmap.FromWireInto(width, data[off:], &m.Default)
		if err != nil {
			return nil, fmt.Errorf("header: default bitmap: %w", err)
		}
		off += n
		m.HasDefault = true
	}
	return data[off:], nil
}

// The fast per-hop loops. testRules and skipRules frame the p-rules of
// one and two identifiers from their count by mask arithmetic on an
// idShape — no branch, no multiply and no variable shift per rule, so a
// section that mixes the two shapes costs no mispredictions — and
// testRules reads an identifier block, at most four bytes, as one
// big-endian word and compares it lane by lane with the identifier
// sought. A rule of another shape, or a malformed one, stops them and
// is left to the caller. Neither calls anything, so their loops keep
// their state in registers: written inline in ConsumeDownstreamInto,
// the same loops spilled the offset and ran 30–50 % slower.

// idShape describes the identifier blocks of one and two w-bit
// identifiers, as the fast per-hop loops read them.
type idShape struct {
	b1, db       int    // a one-identifier block's bytes; a two-identifier block's more
	pad1, dpad   byte   // the padding bits of a one-identifier block's last byte; XOR a two's
	padw1, dpadw uint32 // the same, in the word a block is read as
	lane0, lane1 uint32 // the first and the second identifier in that word
	ones         uint32 // the lowest bit of each lane: id*ones is id in both
}

// idShapes[w] is the idShape of w-bit identifiers.
var idShapes = func() (t [maxIDBits + 1]idShape) {
	for w := uint(1); w <= maxIDBits; w++ {
		b1, b2 := idBlockLen(1, w), idBlockLen(2, w)
		lane0 := ^uint32(0) << (32 - w)
		lane1 := lane0 >> w
		padw1 := ^lane0 &^ (^uint32(0) >> (8 * b1))
		padw2 := ^(lane0 | lane1) &^ (^uint32(0) >> (8 * b2))
		t[w] = idShape{
			b1: b1, db: b2 - b1,
			pad1: idPadMask[w&7], dpad: idPadMask[w&7] ^ idPadMask[2*w&7],
			padw1: padw1, dpadw: padw1 ^ padw2,
			lane0: lane0, lane1: lane1,
			ones: 1<<(32-w) | 1<<(32-2*w),
		}
	}
	return t
}()

// testRules scans the rules at data[off:], left of them to go, for id
// while they are well-formed rules of one or two identifiers shaped s
// with four bytes after their count. It returns where it stopped, and
// the end of the rule there when that rule names id (else 0).
func testRules(data []byte, off, left int, s *idShape, bmLen int, id uint16) (int, int, int) {
	len1, dlen := 1+s.b1+bmLen, uint(s.db)
	want := uint32(id) * s.ones
	for ; left > 0 && off+5 <= len(data); left-- {
		n := data[off]
		two := -uint(n - 1) // all ones for two identifiers, zero for one
		end := off + len1 + int(two&dlen)
		v := uint32(data[off+1])<<24 | uint32(data[off+2])<<16 | uint32(data[off+3])<<8 | uint32(data[off+4])
		if n-1 > 1 || end > len(data) || v&(s.padw1^uint32(two)&s.dpadw) != 0 {
			break
		}
		if x := v ^ want; x&s.lane0 == 0 || x&s.lane1|^uint32(two) == 0 {
			return off, left, end
		}
		off = end
	}
	return off, left, 0
}

// skipRules steps over the rules at data[off:], left of them to go,
// while they are well-formed rules of one or two identifiers shaped s,
// and returns where it stopped.
func skipRules(data []byte, off, left int, s *idShape, bmLen int) (int, int) {
	len1, dlen := 1+s.b1+bmLen, uint(s.db)
	for ; left > 0 && off < len(data); left-- {
		n := data[off]
		two := -uint(n - 1)
		end := off + len1 + int(two&dlen)
		if n-1 > 1 || end > len(data) || data[end-bmLen-1]&(s.pad1^byte(two)&s.dpad) != 0 {
			break
		}
		off = end
	}
	return off, left
}

// idPadMask[nbits%8] masks the padding bits in the last byte of an
// identifier block of nbits bits.
var idPadMask = [8]byte{0x00, 0x7f, 0x3f, 0x1f, 0x0f, 0x07, 0x03, 0x01}

// frameRule frames the p-rule at data[off:] of a downstream section with
// w-bit identifiers and bmLen-byte bitmaps: it returns the end of the
// rule, checking its length, a non-zero identifier count and zeroed
// identifier padding; the bitmap is not read. The RuleWalker frames
// every rule with it (and then checks the bitmap's padding), the per-hop
// reader those its fast loops leave.
func frameRule(data []byte, off int, w uint, bmLen int) (end int, err error) {
	if off >= len(data) {
		return 0, errRuleTruncated
	}
	nbits := uint(data[off]) * w
	if nbits == 0 {
		return 0, errZeroIDs
	}
	end = off + 1 + int(nbits+7)>>3 + bmLen
	if end > len(data) {
		return 0, errRuleTruncated
	}
	if data[end-bmLen-1]&idPadMask[nbits&7] != 0 {
		return 0, errIDPadding
	}
	return end, nil
}

// scanRule frames the p-rule at data[off:] like frameRule and reports
// whether its identifiers name id, one identifier at a time: the
// per-hop reader's path for every rule its word compare does not take.
func scanRule(data []byte, off int, w uint, bmLen int, id uint16) (end int, hit bool, err error) {
	if end, err = frameRule(data, off, w, bmLen); err != nil {
		return 0, false, err
	}
	block := data[off+1 : end-bmLen]
	for b := uint(0); b < uint(data[off])*w; b += w {
		if idAt(block, b, w) == id {
			return end, true, nil
		}
	}
	return end, false, nil
}

// RuleWalker is the cold reader of the downstream grammar: it validates
// a whole section — every rule, not only those before a match — one rule
// at a time, without decoding a bitmap or allocating. SkipSection and
// Decode read a section at the front of a stream with it, CopyDownstream
// and the controller's state writer the section bytes an encoding holds,
// so the structural walk accepts exactly the sections Decode does. The
// zero value is ready for Reset.
type RuleWalker struct {
	// N, IDs and Ports are the rule Next read: its identifier count,
	// its packed identifier block (read with Switch) and its port bitmap
	// in wire form. IDs and Ports alias the section.
	N          int
	IDs, Ports []byte

	data         []byte
	off, left    int // the next rule, and the rules not yet read
	width, bmLen int
	w            uint
	pad          byte // padBits of the port bitmaps
	err          error
}

// Reset starts a walk over the downstream section at the front of data.
// An empty data is an absent section: no rules and no default. The
// front is checked here: the tag and rule count present, a downstream
// tag, and an identifier width the rule framing handles.
func (r *RuleWalker) Reset(l Layout, data []byte) {
	r.data, r.left, r.err = data, 0, nil
	switch {
	case len(data) == 0:
	case len(data) < 2:
		r.err = fmt.Errorf("header: truncated downstream section")
	default:
		r.width, r.w, r.err = downstreamWidths(l, data[0])
		if r.err == nil && r.w-1 >= maxIDBits {
			r.err = errIDWidth
		}
		if r.err == nil {
			r.off, r.left, r.bmLen, r.pad = 2, int(data[1]), bitmap.ByteLen(r.width), padBits(r.width)
		}
	}
}

// Next reads the next p-rule into N, IDs and Ports. It returns false
// after the last rule, and on a malformed rule (End returns the error).
func (r *RuleWalker) Next() bool { return r.seek(anyRule) }

// anyRule is the seek target that every rule matches.
const anyRule = -2

// seek frames the rules not yet read, in one loop that keeps the walk
// in registers, until one names switch stop and no other (any rule for
// anyRule, none for KeepAll); it reads that rule as Next does and
// returns true. It returns false once every rule is read, and on a
// malformed rule, which ends the walk with its error. Each rule is
// framed by frameRule and its bitmap's padding checked.
func (r *RuleWalker) seek(stop int) bool {
	data, off, w, bmLen, pad := r.data, r.off, r.w, r.bmLen, r.pad
	// A one-identifier block naming stop reads as want in its first and
	// last bytes, masked to the block's own: stop in the top w bits, then
	// zero padding (frameRule checks it).
	want, mask := uint16(stop)<<(16-w), ^uint16(0)<<(16-8*idBlockLen(1, w))
	if stop >= 0 && stop>>w != 0 {
		stop = KeepAll // no w-bit identifier is stop
	}
	for left := r.left; left > 0; left-- { // 0 once the walk has failed
		end, err := frameRule(data, off, w, bmLen)
		if err == nil && data[end-1]&pad != 0 {
			err = errBitmapPadding
		}
		if err != nil {
			r.err, r.left = fmt.Errorf("header: rule %d: %w", int(data[1])-left, err), 0
			return false
		}
		if n := int(data[off]); stop == anyRule || stop >= 0 && n == 1 && (uint16(data[off+1])<<8|uint16(data[end-bmLen-1]))&mask == want {
			r.N, r.IDs, r.Ports = n, data[off+1:end-bmLen], data[end-bmLen:end]
			r.off, r.left = end, left-1
			return true
		}
		off = end
	}
	r.off, r.left = off, 0
	return false
}

// Switch returns the i-th identifier of the rule Next read.
func (r *RuleWalker) Switch(i int) uint16 { return idAt(r.IDs, uint(i)*r.w, r.w) }

// End steps over the rules Next has not read and returns the default
// rule's port bitmap in wire form (nil when the section has none), the
// stream after the section, and the walk's first error. An absent
// section ends with neither.
func (r *RuleWalker) End() (def, rest []byte, err error) {
	if r.left > 0 {
		r.seek(KeepAll)
	}
	if r.err != nil || len(r.data) == 0 {
		return nil, nil, r.err
	}
	rest = r.data[r.off:]
	if len(rest) == 0 {
		return nil, nil, fmt.Errorf("header: truncated default-presence byte")
	}
	switch rest[0] {
	case 0:
		return nil, rest[1:], nil
	case 1:
		return cutBitmap(r.width, rest[1:])
	}
	return nil, nil, fmt.Errorf("header: bad default-presence byte %#x", rest[0])
}

// cutBitmap splits the width-bit bitmap off the front of data without
// decoding it, checking what bitmap.FromWire checks: length and zeroed
// padding bits.
func cutBitmap(width int, data []byte) (bm, rest []byte, err error) {
	n := bitmap.ByteLen(width)
	if len(data) < n {
		return nil, nil, errBitmapTruncated
	}
	if pad := padBits(width); pad != 0 && data[n-1]&pad != 0 {
		return nil, nil, errBitmapPadding
	}
	return data[:n], data[n:], nil
}

// padBits masks the padding bits in the last byte of a width-bit bitmap.
func padBits(width int) byte {
	if width%8 == 0 {
		return 0
	}
	return ^byte(0) << (width % 8)
}

// Static errors keep cutBitmap small enough to inline into the walks.
var (
	errBitmapTruncated = errors.New("header: truncated bitmap")
	errBitmapPadding   = errors.New("header: bitmap padding bits set")
	errIDPadding       = errors.New("identifier padding bits set")
	errRuleTruncated   = errors.New("truncated")
	errZeroIDs         = errors.New("zero identifiers")
	errIDWidth         = errors.New("header: layout has no identifier width of 1 to 16 bits (build it with LayoutFor)")
)

// SkipSection pops the section at the front of data without
// materializing it, returning the tag and the remaining stream. It
// checks everything Decode checks about the section except its place in
// the tag order, so a stream the structural walks (StreamInfo, Seek)
// accept is one every switch can parse.
func SkipSection(l Layout, data []byte) (byte, []byte, error) {
	tag, err := PeekTag(data)
	if err != nil {
		return 0, nil, err
	}
	var rest []byte
	switch tag {
	case TagEnd:
		rest = data[EndSize:]
	case TagULeaf, TagUSpine:
		downW, upW, _ := upstreamWidths(l, tag)
		if len(data) < 2 {
			return 0, nil, fmt.Errorf("header: truncated upstream section")
		}
		if data[1]&^upMultipathBit != 0 {
			return 0, nil, fmt.Errorf("header: unknown upstream flags %#x", data[1])
		}
		if _, rest, err = cutBitmap(downW, data[2:]); err == nil {
			_, rest, err = cutBitmap(upW, rest)
		}
	case TagCore:
		_, rest, err = cutBitmap(l.CoreDown, data[1:])
	case TagDSpine, TagDLeaf:
		var walk RuleWalker
		walk.Reset(l, data)
		_, rest, err = walk.End()
	case TagINT:
		var n int
		if n, err = intSectionLen(data); err == nil {
			rest = data[n:]
		}
	default:
		err = fmt.Errorf("header: unknown tag %#x", tag)
	}
	if err != nil {
		return 0, nil, err
	}
	return tag, rest, nil
}

// Seek advances stream to the section with the given tag. Sections are
// in ascending tag order, so the walk stops at the first section whose
// tag is not below tag: found reports whether that is the section asked
// for. When it is not — the layer is served from s-rules, or the section
// was popped — rest is where it would have been, at a later section or
// TagEnd. Earlier sections are stepped over, never interpreted (a legacy
// hop pops nothing, so stale ones may precede the caller's own). Every
// caller that needs "the stream from section X on" asks here: the order
// of tags is written down in this package only.
func Seek(l Layout, stream []byte, tag byte) (rest []byte, found bool, err error) {
	for {
		var front byte
		if front, err = PeekTag(stream); err != nil {
			return nil, false, err
		}
		switch {
		case front > TagINT:
			return nil, false, fmt.Errorf("header: unknown tag %#x", front)
		case front == TagEnd || front >= tag:
			return stream, front == tag, nil
		}
		if _, stream, err = SkipSection(l, stream); err != nil {
			return nil, false, err
		}
	}
}

// StreamInfo returns the total byte length of the section stream
// (through TagEnd), validating framing structurally, plus a free
// byproduct of the same single walk: whether the stream carries an INT
// section. Decoders that walk the stream anyway (dataplane.Unmarshal)
// use it to record INT presence without a second pass.
func StreamInfo(l Layout, data []byte) (n int, hasINT bool, err error) {
	rest := data
	for {
		tag, next, err := SkipSection(l, rest)
		if err != nil {
			return 0, false, err
		}
		if tag == TagINT {
			hasINT = true
		}
		rest = next
		if tag == TagEnd {
			return len(data) - len(rest), hasINT, nil
		}
	}
}
