package header

import (
	"encoding/binary"
	"fmt"

	"elmo/internal/bitmap"
)

// Wire framing constants.
const (
	// MaxSwitchesPerRule bounds the identifier list of one p-rule
	// (Kmax in the paper is always well below this framing limit).
	MaxSwitchesPerRule = 255
	// MaxRulesPerSection bounds the p-rules in one downstream section.
	MaxRulesPerSection = 255
	// RMTHeaderVectorSize is the parseable-header budget of an
	// RMT-style programmable switch (512 bytes, §4.1); encoders should
	// keep headers under it, and the paper's evaluation budget is 325
	// bytes.
	RMTHeaderVectorSize = 512
	// PaperHeaderBudget is the evaluation's p-rule header cap (§5.1.2).
	PaperHeaderBudget = 325
)

// upstream rule flag bits.
const upMultipathBit = 0x01

// AppendEncode appends the wire encoding of h (the section stream,
// through the trailing TagEnd) to dst and returns the extended slice.
// The Elmo version travels in the outer VXLAN header (see package
// vxlan encapsulation in outer.go), not in the section stream, so that
// popping a section is a pure suffix operation. The encoding is
// deterministic. It returns an error if any rule violates framing
// limits or a bitmap width disagrees with the layout.
//
// It is the section appenders below applied to h's fields in tag order;
// a caller that holds a header's parts in another shape (the
// controller's per-sender specialisation of a shared encoding) calls
// the appenders itself and produces the same bytes.
func AppendEncode(dst []byte, l Layout, h *Header) ([]byte, error) {
	if err := l.Validate(); err != nil {
		return dst, err
	}
	var err error
	if r := h.ULeaf; r != nil {
		if dst, err = AppendUpstream(dst, l, TagULeaf, r.Down, r.Up, r.Multipath); err != nil {
			return dst, err
		}
	}
	if r := h.USpine; r != nil {
		if dst, err = AppendUpstream(dst, l, TagUSpine, r.Down, r.Up, r.Multipath); err != nil {
			return dst, err
		}
	}
	if h.Core != nil {
		if dst, err = AppendCore(dst, l, *h.Core); err != nil {
			return dst, err
		}
	}
	if dst, err = AppendDownstream(dst, l, TagDSpine, h.DSpine, h.DSpineDefault, KeepAll); err != nil {
		return dst, err
	}
	if dst, err = AppendDownstream(dst, l, TagDLeaf, h.DLeaf, h.DLeafDefault, KeepAll); err != nil {
		return dst, err
	}
	if h.INTEnabled {
		if dst, err = AppendINTSection(dst, h.INT); err != nil {
			return dst, err
		}
	}
	return append(dst, TagEnd), nil
}

// Encode is AppendEncode into a fresh slice.
func Encode(l Layout, h *Header) ([]byte, error) {
	return AppendEncode(make([]byte, 0, EncodedSize(l, h)), l, h)
}

// AppendUpstream appends one upstream section — tag TagULeaf or
// TagUSpine, the multipath flag, then the down and up bitmaps, whose
// widths must be the layout's for that tag.
func AppendUpstream(dst []byte, l Layout, tag byte, down, up bitmap.Bitmap, multipath bool) ([]byte, error) {
	downW, upW, err := upstreamWidths(l, tag)
	if err != nil {
		return dst, err
	}
	if down.Width() != downW {
		return dst, fmt.Errorf("header: upstream down bitmap width %d, layout wants %d", down.Width(), downW)
	}
	if up.Width() != upW {
		return dst, fmt.Errorf("header: upstream up bitmap width %d, layout wants %d", up.Width(), upW)
	}
	var flags byte
	if multipath {
		flags |= upMultipathBit
	}
	dst = append(dst, tag, flags)
	dst = down.AppendWire(dst)
	return up.AppendWire(dst), nil
}

// AppendCore appends the core section: the bitmap over pods.
func AppendCore(dst []byte, l Layout, pods bitmap.Bitmap) ([]byte, error) {
	if pods.Width() != l.CoreDown {
		return dst, fmt.Errorf("header: core bitmap width %d, layout wants %d", pods.Width(), l.CoreDown)
	}
	return pods.AppendWire(append(dst, TagCore)), nil
}

// KeepAll is the AppendDownstream omit argument that drops no rule.
const KeepAll = -1

// AppendDownstream appends one downstream section — tag TagDSpine or
// TagDLeaf — holding rules and the optional default rule. A rule that
// names switch omit and no other is left out: a sender's packets never
// come back down to its own leaf or pod, so carrying that rule would
// only cost header bytes (KeepAll keeps every rule). When no rule
// remains and there is no default, the section is absent and dst is
// returned as it came.
func AppendDownstream(dst []byte, l Layout, tag byte, rules []PRule, def *bitmap.Bitmap, omit int) ([]byte, error) {
	width, err := downstreamWidth(l, tag)
	if err != nil {
		return dst, err
	}
	kept := len(rules)
	for i := range rules {
		if namesOnly(&rules[i], omit) {
			kept--
		}
	}
	if kept == 0 && def == nil {
		return dst, nil
	}
	if kept > MaxRulesPerSection {
		return dst, fmt.Errorf("header: %d rules exceeds section limit %d", kept, MaxRulesPerSection)
	}
	dst = append(dst, tag, byte(kept))
	for i := range rules {
		r := &rules[i]
		if namesOnly(r, omit) {
			continue
		}
		if len(r.Switches) == 0 {
			return dst, fmt.Errorf("header: rule %d has no switch identifiers", i)
		}
		if len(r.Switches) > MaxSwitchesPerRule {
			return dst, fmt.Errorf("header: rule %d has %d switches, limit %d", i, len(r.Switches), MaxSwitchesPerRule)
		}
		if r.Bitmap.Width() != width {
			return dst, fmt.Errorf("header: rule %d bitmap width %d, layout wants %d", i, r.Bitmap.Width(), width)
		}
		dst = append(dst, byte(len(r.Switches)))
		for _, id := range r.Switches {
			dst = binary.BigEndian.AppendUint16(dst, id)
		}
		dst = r.Bitmap.AppendWire(dst)
	}
	if def == nil {
		return append(dst, 0), nil
	}
	if def.Width() != width {
		return dst, fmt.Errorf("header: default bitmap width %d, layout wants %d", def.Width(), width)
	}
	return def.AppendWire(append(dst, 1)), nil
}

func downstreamWidth(l Layout, tag byte) (int, error) {
	switch tag {
	case TagDSpine:
		return l.SpineDown, nil
	case TagDLeaf:
		return l.LeafDown, nil
	default:
		return 0, fmt.Errorf("header: tag %#x is not a downstream section", tag)
	}
}

// namesOnly reports whether the rule lists switch sw and no other.
func namesOnly(r *PRule, sw int) bool {
	return len(r.Switches) == 1 && int(r.Switches[0]) == sw
}

// EncodedSize returns the exact number of bytes AppendEncode will
// produce for h under layout l, without encoding. The controller uses
// it to enforce header budgets (Hmax, §3.2).
func EncodedSize(l Layout, h *Header) int {
	n := 1 // TagEnd
	if h.ULeaf != nil {
		n += 2 + bitmap.ByteLen(l.LeafDown) + bitmap.ByteLen(l.LeafUp)
	}
	if h.USpine != nil {
		n += 2 + bitmap.ByteLen(l.SpineDown) + bitmap.ByteLen(l.SpineUp)
	}
	if h.Core != nil {
		n += 1 + bitmap.ByteLen(l.CoreDown)
	}
	if len(h.DSpine) > 0 || h.DSpineDefault != nil {
		n += downstreamSize(l.SpineDown, h.DSpine, h.DSpineDefault != nil)
	}
	if len(h.DLeaf) > 0 || h.DLeafDefault != nil {
		n += downstreamSize(l.LeafDown, h.DLeaf, h.DLeafDefault != nil)
	}
	if h.INTEnabled {
		n += 2 + intRecordSize*len(h.INT)
	}
	return n
}

func downstreamSize(width int, rules []PRule, hasDefault bool) int {
	n := 3 // tag + count + default-presence byte
	bm := bitmap.ByteLen(width)
	for _, r := range rules {
		n += 1 + 2*len(r.Switches) + bm
	}
	if hasDefault {
		n += bm
	}
	return n
}

// DownstreamSectionSize returns the wire size of one downstream section
// with the given rule shapes; the clustering algorithm uses it to keep
// sections within a byte budget before materializing rules.
func DownstreamSectionSize(width int, ruleSwitchCounts []int, hasDefault bool) int {
	n := 3
	bm := bitmap.ByteLen(width)
	for _, k := range ruleSwitchCounts {
		n += 1 + 2*k + bm
	}
	if hasDefault {
		n += bm
	}
	return n
}

// Decode parses a complete Elmo section stream from data, returning
// the header and the number of bytes consumed (through TagEnd). Decode
// validates framing: unknown or out-of-order tags, truncated sections,
// and padding violations are errors.
func Decode(l Layout, data []byte) (*Header, int, error) {
	if err := l.Validate(); err != nil {
		return nil, 0, err
	}
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("header: truncated (%d bytes)", len(data))
	}
	h := &Header{}
	off := 0
	lastTag := byte(0)
	for {
		if off >= len(data) {
			return nil, 0, fmt.Errorf("header: missing TagEnd")
		}
		tag := data[off]
		off++
		if tag == TagEnd {
			return h, off, nil
		}
		if tag <= lastTag || tag > TagINT {
			return nil, 0, fmt.Errorf("header: tag %#x out of order after %#x", tag, lastTag)
		}
		lastTag = tag
		var err error
		switch tag {
		case TagULeaf:
			h.ULeaf, off, err = decodeUpstream(data, off, l.LeafDown, l.LeafUp)
		case TagUSpine:
			h.USpine, off, err = decodeUpstream(data, off, l.SpineDown, l.SpineUp)
		case TagCore:
			var bm bitmap.Bitmap
			var n int
			bm, n, err = bitmap.FromWire(l.CoreDown, data[off:])
			if err == nil {
				h.Core = &bm
				off += n
			}
		case TagDSpine:
			h.DSpine, h.DSpineDefault, off, err = decodeDownstream(data, off, l.SpineDown)
		case TagDLeaf:
			h.DLeaf, h.DLeafDefault, off, err = decodeDownstream(data, off, l.LeafDown)
		case TagINT:
			h.INTEnabled = true
			h.INT, off, err = decodeINTSection(data, off)
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

func decodeUpstream(data []byte, off, downW, upW int) (*UpstreamRule, int, error) {
	if off >= len(data) {
		return nil, off, fmt.Errorf("header: truncated upstream rule")
	}
	flags := data[off]
	off++
	if flags&^upMultipathBit != 0 {
		return nil, off, fmt.Errorf("header: unknown upstream flags %#x", flags)
	}
	down, n, err := bitmap.FromWire(downW, data[off:])
	if err != nil {
		return nil, off, fmt.Errorf("header: upstream down: %w", err)
	}
	off += n
	up, n, err := bitmap.FromWire(upW, data[off:])
	if err != nil {
		return nil, off, fmt.Errorf("header: upstream up: %w", err)
	}
	off += n
	return &UpstreamRule{Down: down, Up: up, Multipath: flags&upMultipathBit != 0}, off, nil
}

func decodeDownstream(data []byte, off, width int) ([]PRule, *bitmap.Bitmap, int, error) {
	if off >= len(data) {
		return nil, nil, off, fmt.Errorf("header: truncated downstream section")
	}
	count := int(data[off])
	off++
	rules := make([]PRule, 0, count)
	for i := 0; i < count; i++ {
		if off >= len(data) {
			return nil, nil, off, fmt.Errorf("header: truncated rule %d", i)
		}
		nIDs := int(data[off])
		off++
		if nIDs == 0 {
			return nil, nil, off, fmt.Errorf("header: rule %d has zero identifiers", i)
		}
		if off+2*nIDs > len(data) {
			return nil, nil, off, fmt.Errorf("header: truncated identifiers in rule %d", i)
		}
		ids := make([]uint16, nIDs)
		for j := range ids {
			ids[j] = binary.BigEndian.Uint16(data[off:])
			off += 2
		}
		bm, n, err := bitmap.FromWire(width, data[off:])
		if err != nil {
			return nil, nil, off, fmt.Errorf("header: rule %d bitmap: %w", i, err)
		}
		off += n
		rules = append(rules, PRule{Switches: ids, Bitmap: bm})
	}
	if off >= len(data) {
		return nil, nil, off, fmt.Errorf("header: truncated default-presence byte")
	}
	hasDef := data[off]
	off++
	if hasDef > 1 {
		return nil, nil, off, fmt.Errorf("header: bad default-presence byte %#x", hasDef)
	}
	var def *bitmap.Bitmap
	if hasDef == 1 {
		bm, n, err := bitmap.FromWire(width, data[off:])
		if err != nil {
			return nil, nil, off, fmt.Errorf("header: default bitmap: %w", err)
		}
		off += n
		def = &bm
	}
	return rules, def, off, nil
}
