package header

import (
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

	// maxIDBits bounds a packed p-rule identifier: PRule.Switches holds
	// uint16s.
	maxIDBits = 16
)

// A downstream p-rule's identifiers are packed at the layout's width
// for the section (Layout.IdentifierBits): after the rule's count byte
// come ⌈n·w/8⌉ bytes holding the n identifiers as big-endian w-bit
// fields, first identifier in the most significant bits, the unused
// low bits of the last byte zero. Only this package depends on it:
// AppendDownstream writes identifiers (appendIDs), ConsumeDownstreamInto
// and the RuleWalker read them, DownstreamSize and EncodedSize count
// them.

// idBlockLen is the byte length of n identifiers packed at w bits.
func idBlockLen(n int, w uint) int { return (n*int(w) + 7) >> 3 }

// appendIDs appends ids packed at w bits each.
func appendIDs(dst []byte, ids []uint16, w uint) ([]byte, error) {
	var acc uint32 // bits not yet written sit in the low n bits
	var n uint
	for _, id := range ids {
		if uint(id)>>w != 0 {
			return dst, fmt.Errorf("header: switch identifier %d does not fit %d bits", id, w)
		}
		acc = acc<<w | uint32(id)
		for n += w; n >= 8; n -= 8 {
			dst = append(dst, byte(acc>>(n-8)))
		}
	}
	if n > 0 {
		dst = append(dst, byte(acc<<(8-n)))
	}
	return dst, nil
}

// idAt returns the w-bit identifier that starts first bits into block
// (bit 0 is the most significant bit of block[0]).
func idAt(block []byte, first, w uint) uint16 {
	last := first + w - 1
	var v uint32
	for b := first >> 3; b <= last>>3; b++ {
		v = v<<8 | uint32(block[b])
	}
	return uint16(v >> (7 - last&7) & (1<<w - 1))
}

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
// returned as it came. An identifier wider than the layout's width for
// the section is an error.
func AppendDownstream(dst []byte, l Layout, tag byte, rules []PRule, def *bitmap.Bitmap, omit int) ([]byte, error) {
	width, w, err := downstreamWidths(l, tag)
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
		if dst, err = appendIDs(append(dst, byte(len(r.Switches))), r.Switches, w); err != nil {
			return dst, fmt.Errorf("header: rule %d: %w", i, err)
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

// CopyDownstream appends the downstream section held in section — the
// bytes AppendDownstream wrote with KeepAll, or nil for an absent
// section — leaving out every rule that names switch omit and no other:
// it writes exactly what AppendDownstream writes for the same rules,
// default and omit, copying the runs of rules kept without decoding a
// rule. When no rule remains and there is no default, nothing is
// appended. A section the RuleWalker refuses, or one with bytes after
// its default rule, is an error, and dst is then returned as it came.
func CopyDownstream(dst []byte, l Layout, section []byte, omit int) ([]byte, error) {
	var walk RuleWalker
	walk.Reset(l, section)
	start, kept := len(dst), RuleCount(section)
	dst = append(dst, section[:min(2, len(section))]...)
	run := 2 // the first byte of section not yet copied
	for omit >= 0 && walk.seek(omit) {
		ruleStart := walk.off - 1 - len(walk.IDs) - len(walk.Ports)
		dst, run, kept = append(dst, section[run:ruleStart]...), walk.off, kept-1
	}
	def, rest, err := walk.End()
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("header: downstream section of %d bytes ends at byte %d", len(section), len(section)-len(rest))
	}
	if err != nil || (kept == 0 && def == nil) {
		return dst[:start], err
	}
	dst[start+1] = byte(kept)
	return append(dst, section[run:]...), nil
}

// RuleCount returns the number of p-rules in a downstream section as
// AppendDownstream wrote it: 0 for an absent (nil) section.
func RuleCount(section []byte) int {
	if len(section) < 2 {
		return 0
	}
	return int(section[1])
}

// downstreamWidths returns the port-bitmap width and the identifier
// width of the downstream section with the given tag.
func downstreamWidths(l Layout, tag byte) (ports int, ids uint, err error) {
	switch tag {
	case TagDSpine:
		return l.SpineDown, uint(l.podIDBits), nil
	case TagDLeaf:
		return l.LeafDown, uint(l.leafIDBits), nil
	default:
		return 0, 0, fmt.Errorf("header: tag %#x is not a downstream section", tag)
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
// perRule switch identifiers each, plus the default rule if hasDefault;
// like AppendDownstream, it counts a section with neither as absent. It
// bounds every section of as many rules listing at most perRule
// identifiers each, so the controller budgets headers with it (Hmax,
// §3.2).
func DownstreamSize(l Layout, tag byte, rules, perRule int, hasDefault bool) int {
	if rules == 0 && !hasDefault {
		return 0
	}
	width, w, _ := downstreamWidths(l, tag)
	// tag, count, default-presence; per rule an id count, the packed ids and a bitmap
	n := 3 + rules*(1+idBlockLen(perRule, w)+bitmap.ByteLen(width))
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
		n := DownstreamSize(l, tag, len(rules), 0, def != nil) // all but the identifier blocks
		w := uint(l.IdentifierBits(tag))
		for _, r := range rules {
			n += idBlockLen(len(r.Switches), w)
		}
		return n
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
			h.INT, rest, err = appendINTSection(nil, rest)
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// decodeRules materializes the downstream section at the front of data
// (its tag already peeked) into rules and def, as the RuleWalker reads it.
func decodeRules(l Layout, data []byte, rules *[]PRule, def **bitmap.Bitmap) ([]byte, error) {
	width, _, _ := downstreamWidths(l, data[0])
	var walk RuleWalker
	walk.Reset(l, data)
	*rules = make([]PRule, 0, RuleCount(data))
	// FromWire checks a bitmap's length and padding, as the walk has.
	for walk.Next() {
		sw := make([]uint16, walk.N)
		for i := range sw {
			sw[i] = walk.Switch(i)
		}
		bm, _, _ := bitmap.FromWire(width, walk.Ports)
		*rules = append(*rules, PRule{Switches: sw, Bitmap: bm})
	}
	ports, rest, err := walk.End()
	if ports != nil {
		bm, _, _ := bitmap.FromWire(width, ports)
		*def = &bm
	}
	return rest, err
}
