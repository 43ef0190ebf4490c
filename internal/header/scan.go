package header

import (
	"encoding/binary"
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

// ConsumeDownstream scans the downstream section with the given tag
// (TagDSpine or TagDLeaf) for the switch identifier id, and returns
// the match result plus the remaining stream after popping the entire
// section (D2d: a packet visits each layer once, so the whole layer's
// section is removed when forwarding onward).
//
// The scan stops decoding bitmaps at the first matching rule; the
// remaining rules are skipped structurally (length arithmetic only),
// which is what keeps per-packet work bounded on a line-rate parser.
func ConsumeDownstream(l Layout, tag byte, id uint16, data []byte) (DownstreamMatch, []byte, error) {
	var m DownstreamMatch
	rest, err := ConsumeDownstreamInto(l, tag, id, data, &m)
	if err != nil {
		return DownstreamMatch{}, nil, err
	}
	return m, rest, nil
}

// ConsumeDownstreamInto is ConsumeDownstream decoding into m, reusing
// its matched/default bitmap storage — the allocation-free form the
// data-plane fast path calls per packet. m is fully overwritten; the
// decoded match is valid until the next call with the same m.
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
		idsEnd := off + 2*nIDs
		ruleEnd := idsEnd + bmLen
		if ruleEnd > len(data) {
			return nil, fmt.Errorf("header: truncated rule %d", i)
		}
		if !m.Matched {
			for j := off; j < idsEnd; j += 2 {
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

// SkipSection pops the section at the front of data without
// interpreting its rules, returning the tag and the remaining stream.
// Switches use it to discard sections that do not concern them (e.g. a
// spine receiving a packet whose core section was not needed).
func SkipSection(l Layout, data []byte) (byte, []byte, error) {
	tag, err := PeekTag(data)
	if err != nil {
		return 0, nil, err
	}
	switch tag {
	case TagEnd:
		return TagEnd, data[1:], nil
	case TagULeaf:
		n := 1 + upstreamSectionLen(l.LeafDown, l.LeafUp)
		if len(data) < n {
			return 0, nil, fmt.Errorf("header: truncated u-leaf section")
		}
		return tag, data[n:], nil
	case TagUSpine:
		n := 1 + upstreamSectionLen(l.SpineDown, l.SpineUp)
		if len(data) < n {
			return 0, nil, fmt.Errorf("header: truncated u-spine section")
		}
		return tag, data[n:], nil
	case TagCore:
		n := 1 + bitmap.ByteLen(l.CoreDown)
		if len(data) < n {
			return 0, nil, fmt.Errorf("header: truncated core section")
		}
		return tag, data[n:], nil
	case TagDSpine, TagDLeaf:
		width := l.SpineDown
		if tag == TagDLeaf {
			width = l.LeafDown
		}
		rest, err := skipDownstream(width, data)
		if err != nil {
			return 0, nil, err
		}
		return tag, rest, nil
	case TagINT:
		n, err := intSectionLen(data)
		if err != nil {
			return 0, nil, err
		}
		return tag, data[n:], nil
	default:
		return 0, nil, fmt.Errorf("header: unknown tag %#x", tag)
	}
}

func skipDownstream(width int, data []byte) ([]byte, error) {
	bmLen := bitmap.ByteLen(width)
	if len(data) < 2 {
		return nil, fmt.Errorf("header: truncated downstream section")
	}
	count := int(data[1])
	off := 2
	for i := 0; i < count; i++ {
		if off >= len(data) {
			return nil, fmt.Errorf("header: truncated rule %d", i)
		}
		nIDs := int(data[off])
		off += 1 + 2*nIDs + bmLen
		if off > len(data) {
			return nil, fmt.Errorf("header: truncated rule %d", i)
		}
	}
	if off >= len(data) {
		return nil, fmt.Errorf("header: truncated default-presence byte")
	}
	hasDef := data[off]
	off++
	if hasDef == 1 {
		off += bmLen
		if off > len(data) {
			return nil, fmt.Errorf("header: truncated default bitmap")
		}
	} else if hasDef > 1 {
		return nil, fmt.Errorf("header: bad default-presence byte %#x", hasDef)
	}
	return data[off:], nil
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
