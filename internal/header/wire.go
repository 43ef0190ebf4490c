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

	// idBytes is the wire width of one switch identifier, in a downstream
	// p-rule and in an INT record. Only this package depends on it:
	// AppendDownstream writes identifiers, ConsumeDownstreamInto and
	// walkDownstream read them, DownstreamSize counts them.
	idBytes = 2
	// IdentifierBits is the same width in bits, for package p4gen.
	IdentifierBits = 8 * idBytes
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

// EndSize is the wire size of the TagEnd that closes every stream.
const EndSize = 1

// UpstreamSize returns the wire size of the upstream section with the
// given tag (TagULeaf or TagUSpine): tag, flags and the two bitmaps.
func UpstreamSize(l Layout, tag byte) int {
	downW, upW, _ := upstreamWidths(l, tag)
	return 1 + upstreamSectionLen(downW, upW)
}

// CoreSize returns the wire size of the core section.
func CoreSize(l Layout) int { return 1 + bitmap.ByteLen(l.CoreDown) }

// DownstreamSize returns the wire size of the downstream section with
// the given tag (TagDSpine or TagDLeaf) holding rules p-rules that list
// ids switch identifiers between them, plus the default rule if
// hasDefault; like AppendDownstream, it counts a section with neither
// as absent. The controller budgets headers with it (Hmax, §3.2).
func DownstreamSize(l Layout, tag byte, rules, ids int, hasDefault bool) int {
	if rules == 0 && !hasDefault {
		return 0
	}
	width, _ := downstreamWidth(l, tag)
	n := 3 + rules*(1+bitmap.ByteLen(width)) + ids*idBytes // tag, count, default-presence; per rule an id count and a bitmap
	if hasDefault {
		n += bitmap.ByteLen(width)
	}
	return n
}

// EncodedSize returns the exact number of bytes AppendEncode will
// produce for h under layout l, without encoding.
func EncodedSize(l Layout, h *Header) int {
	n := EndSize
	if h.ULeaf != nil {
		n += UpstreamSize(l, TagULeaf)
	}
	if h.USpine != nil {
		n += UpstreamSize(l, TagUSpine)
	}
	if h.Core != nil {
		n += CoreSize(l)
	}
	down := func(tag byte, rules []PRule, def *bitmap.Bitmap) int {
		ids := 0
		for _, r := range rules {
			ids += len(r.Switches)
		}
		return DownstreamSize(l, tag, len(rules), ids, def != nil)
	}
	n += down(TagDSpine, h.DSpine, h.DSpineDefault) + down(TagDLeaf, h.DLeaf, h.DLeafDefault)
	if h.INTEnabled {
		n += intSize(len(h.INT))
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
	h := &Header{}
	rest, lastTag := data, byte(TagEnd)
	for {
		tag, err := PeekTag(rest)
		if err != nil {
			return nil, 0, fmt.Errorf("header: missing TagEnd")
		}
		if tag == TagEnd {
			return h, len(data) - len(rest) + EndSize, nil
		}
		if tag <= lastTag || tag > TagINT {
			return nil, 0, fmt.Errorf("header: tag %#x out of order after %#x", tag, lastTag)
		}
		lastTag = tag
		switch tag {
		case TagULeaf:
			h.ULeaf = &UpstreamRule{}
			rest, err = ConsumeUpstreamInto(l, tag, rest, h.ULeaf)
		case TagUSpine:
			h.USpine = &UpstreamRule{}
			rest, err = ConsumeUpstreamInto(l, tag, rest, h.USpine)
		case TagCore:
			h.Core = &bitmap.Bitmap{}
			rest, err = ConsumeCoreInto(l, rest, h.Core)
		case TagDSpine:
			rest, err = decodeRules(l, rest, &h.DSpine, &h.DSpineDefault)
		case TagDLeaf:
			rest, err = decodeRules(l, rest, &h.DLeaf, &h.DLeafDefault)
		case TagINT:
			h.INTEnabled = true
			h.INT, rest, err = decodeINTSection(rest)
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// decodeRules materializes the downstream section at the front of data
// (its tag already peeked) into rules and def, as walkDownstream reads it.
func decodeRules(l Layout, data []byte, rules *[]PRule, def **bitmap.Bitmap) ([]byte, error) {
	width, _ := downstreamWidth(l, data[0])
	if len(data) > 1 {
		*rules = make([]PRule, 0, data[1])
	}
	return walkDownstream(l, data, func(ids, ports []byte) error {
		bm, _, err := bitmap.FromWire(width, ports)
		if err != nil {
			return err
		}
		if ids == nil {
			d := bm // a copy, so only the default's bitmap header escapes
			*def = &d
			return nil
		}
		sw := make([]uint16, len(ids)/idBytes)
		for i := range sw {
			sw[i] = binary.BigEndian.Uint16(ids[i*idBytes:])
		}
		*rules = append(*rules, PRule{Switches: sw, Bitmap: bm})
		return nil
	})
}
