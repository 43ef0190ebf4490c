package header

import (
	"encoding/binary"
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
// remaining rules are skipped structurally (length arithmetic only),
// which is what keeps per-packet work bounded on a line-rate parser. It
// reuses m's matched/default bitmap storage, so the data-plane fast path
// calls it per packet and allocates nothing once warm. m is fully
// overwritten; the decoded match is valid until the next call with the
// same m. It is the per-hop reader of the downstream grammar, one fused
// pass on purpose; walkDownstream is the cold one (DESIGN.md § Header).
func ConsumeDownstreamInto(l Layout, tag byte, id uint16, data []byte, m *DownstreamMatch) ([]byte, error) {
	var width int
	switch tag {
	case TagDSpine:
		width = l.SpineDown
	case TagDLeaf:
		width = l.LeafDown
	default:
		return nil, fmt.Errorf("header: tag %#x is not a downstream section", tag)
	}
	if len(data) < 2 || data[0] != tag {
		return nil, fmt.Errorf("header: expected tag %#x at front", tag)
	}
	bmLen := bitmap.ByteLen(width)
	count := int(data[1])
	off := 2
	m.Matched, m.HasDefault = false, false
	for i := 0; i < count; i++ {
		if off >= len(data) {
			return nil, fmt.Errorf("header: truncated rule %d", i)
		}
		nIDs := int(data[off])
		off++
		if nIDs == 0 {
			return nil, fmt.Errorf("header: rule %d has zero identifiers", i)
		}
		idsEnd := off + idBytes*nIDs
		ruleEnd := idsEnd + bmLen
		if ruleEnd > len(data) {
			return nil, fmt.Errorf("header: truncated rule %d", i)
		}
		if !m.Matched {
			for j := off; j < idsEnd; j += idBytes {
				if binary.BigEndian.Uint16(data[j:]) == id {
					if _, err := bitmap.FromWireInto(width, data[idsEnd:ruleEnd], &m.Bitmap); err != nil {
						return nil, fmt.Errorf("header: rule %d bitmap: %w", i, err)
					}
					m.Matched = true
					break
				}
			}
		}
		off = ruleEnd
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

// walkDownstream is the cold reader of the downstream grammar: it
// validates the whole section at the front of data — every rule, not
// only those before a match — and returns the remaining stream. visit,
// when non-nil, is given each p-rule's identifier list and port bitmap
// in wire form, then the default rule's bitmap if there is one (ids
// nil). SkipSection walks with no visitor and Decode with one that
// materializes the rules, so the structural walk accepts exactly the
// sections Decode does.
func walkDownstream(l Layout, data []byte, visit func(ids, ports []byte) error) ([]byte, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("header: truncated downstream section")
	}
	width, err := downstreamWidth(l, data[0])
	if err != nil {
		return nil, err
	}
	rest := data[2:]
	for i := 0; i < int(data[1]); i++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("header: truncated rule %d", i)
		}
		idsEnd := 1 + idBytes*int(rest[0])
		if idsEnd == 1 {
			return nil, fmt.Errorf("header: rule %d has zero identifiers", i)
		}
		if len(rest) < idsEnd {
			return nil, fmt.Errorf("header: truncated identifiers in rule %d", i)
		}
		ports, after, err := cutBitmap(width, rest[idsEnd:])
		if err != nil {
			return nil, fmt.Errorf("header: rule %d: %w", i, err)
		}
		if visit != nil {
			if err := visit(rest[1:idsEnd], ports); err != nil {
				return nil, err
			}
		}
		rest = after
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("header: truncated default-presence byte")
	}
	switch rest[0] {
	case 0:
		return rest[1:], nil
	case 1:
		ports, after, err := cutBitmap(width, rest[1:])
		if err == nil && visit != nil {
			err = visit(nil, ports)
		}
		return after, err
	default:
		return nil, fmt.Errorf("header: bad default-presence byte %#x", rest[0])
	}
}

// cutBitmap splits the width-bit bitmap off the front of data without
// decoding it, checking what bitmap.FromWire checks: length and zeroed
// padding bits.
func cutBitmap(width int, data []byte) (bm, rest []byte, err error) {
	n := bitmap.ByteLen(width)
	if len(data) < n {
		return nil, nil, errBitmapTruncated
	}
	if pad := width % 8; pad != 0 && data[n-1]>>pad != 0 {
		return nil, nil, errBitmapPadding
	}
	return data[:n], data[n:], nil
}

// Static errors keep cutBitmap small enough to inline into the walks.
var (
	errBitmapTruncated = errors.New("header: truncated bitmap")
	errBitmapPadding   = errors.New("header: bitmap padding bits set")
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
		rest, err = walkDownstream(l, data, nil)
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
