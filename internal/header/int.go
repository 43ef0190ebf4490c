package header

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// In-band network telemetry (INT) support — the §7 "Monitoring"
// extension: a multicast packet can carry a telemetry section that
// every Elmo switch on the path appends a record to, so receivers (or
// analytics collectors) can reconstruct the replication tree a copy
// actually took and debug routing configurations.
//
// The INT section rides between the d-leaf section and TagEnd (tag
// order stays ascending). Unlike p-rule sections it survives popping:
// switches pop their own layer from the front and append INT records
// near the back, and the leaf's host-facing egress keeps the section
// while stripping all p-rules.

// TagINT frames the telemetry section.
const TagINT = 0x06

// INT tier codes.
const (
	INTTierLeaf  = 1
	INTTierSpine = 2
	INTTierCore  = 3
)

// INTRecord is one per-hop telemetry record: the switch tier and
// identifier, plus an implementation-defined 8-bit metadata field
// (queue depth in the paper's INT use case; hop index in the emulated
// fabric).
type INTRecord struct {
	Tier uint8
	ID   uint16
	Meta uint8
}

// An INT record's identifier is the switch's own tier-local ID at a
// fixed two bytes: the section sits outside the p-rule budget, and which
// switches an ID numbers depends on the record's tier byte.
const (
	intIDBytes = 2
	// INTIdentifierBits is the same width in bits, for package p4gen.
	INTIdentifierBits = 8 * intIDBytes
)

// intRecordSize is the wire size of one record: tier, identifier, meta.
const intRecordSize = 1 + intIDBytes + 1

// INTSectionSize is the wire size of an INT section with no records,
// what a sender's header carries: tag and record count.
const INTSectionSize = 2

// intSize returns the wire size of an INT section holding n records.
func intSize(n int) int { return INTSectionSize + n*intRecordSize }

// AppendINTSection appends an (initially empty or pre-filled) INT
// section to dst.
func AppendINTSection(dst []byte, records []INTRecord) ([]byte, error) {
	if len(records) > 255 {
		return dst, fmt.Errorf("header: %d INT records exceeds section limit", len(records))
	}
	dst = append(dst, TagINT, byte(len(records)))
	for _, r := range records {
		dst = appendINTRecord(dst, r)
	}
	return dst, nil
}

func appendINTRecord(dst []byte, r INTRecord) []byte {
	dst = append(dst, r.Tier)
	dst = binary.BigEndian.AppendUint16(dst, r.ID)
	return append(dst, r.Meta)
}

// appendINTSection appends the records of the INT section at the front
// of data to dst, growing dst once by the section's record count, and
// returns the stream after the section. It is the one reader of the
// record layout: Decode and AppendINT both go through it. On error dst
// comes back unchanged.
func appendINTSection(dst []INTRecord, data []byte) ([]INTRecord, []byte, error) {
	n, err := intSectionLen(data)
	if err != nil {
		return dst, nil, err
	}
	count, n0 := int(data[1]), len(dst)
	if cap(dst) == 0 {
		// A first or lone section (DeliverFull's): one exact make, not
		// slices.Grow, which takes the slower growslice path from empty.
		dst = make([]INTRecord, 0, count)
	} else {
		dst = slices.Grow(dst, count)
	}
	dst = dst[:n0+count]
	for i := range dst[n0:] {
		rec := data[intSize(i):]
		dst[n0+i] = INTRecord{Tier: rec[0], ID: binary.BigEndian.Uint16(rec[1:]), Meta: rec[1+intIDBytes]}
	}
	return dst, data[n:], nil
}

// intSectionLen returns the full section length (tag byte included) at
// the front of data, or an error.
func intSectionLen(data []byte) (int, error) {
	if len(data) < 2 || data[0] != TagINT {
		return 0, fmt.Errorf("header: expected INT section at front")
	}
	n := intSize(int(data[1]))
	if n > len(data) {
		return 0, fmt.Errorf("header: truncated INT section")
	}
	return n, nil
}

// AppendINTRecordTo rewrites a section stream whose trailing sections
// include an INT section, appending one record: the rewritten stream
// (stream + one record) is appended to dst and returned with ok=true.
// When the stream carries no INT section, or the section is already
// full, it returns (dst, false, nil) with dst unchanged — the caller
// should keep forwarding the original stream, so switches can call it
// unconditionally. The input stream is never modified (streams are
// shared between packet copies).
func AppendINTRecordTo(l Layout, dst, stream []byte, rec INTRecord) ([]byte, bool, error) {
	sec, found, err := Seek(l, stream, TagINT)
	if err != nil || !found {
		return dst, false, err // no INT section: nothing to do
	}
	secLen, err := intSectionLen(sec)
	if err != nil {
		return dst, false, err
	}
	count := int(sec[1])
	if count >= 255 {
		return dst, false, nil // section full: drop the record, keep forwarding
	}
	dst = append(dst, stream[:len(stream)-len(sec)]...)
	dst = append(dst, TagINT, byte(count+1))
	dst = append(dst, sec[2:secLen]...)
	dst = appendINTRecord(dst, rec)
	dst = append(dst, sec[secLen:]...)
	return dst, true, nil
}

// AppendINT appends the records of the INT section of a section stream,
// if it carries one, to dst and returns the extended slice; dst grows at
// most once. A stream without the section returns dst unchanged, and so
// does one that fails to parse, with the error.
func AppendINT(dst []INTRecord, l Layout, stream []byte) ([]INTRecord, error) {
	sec, found, err := Seek(l, stream, TagINT)
	if err != nil || !found {
		return dst, err
	}
	dst, _, err = appendINTSection(dst, sec)
	return dst, err
}
