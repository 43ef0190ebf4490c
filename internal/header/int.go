package header

import "fmt"

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

// intRecordSize is the wire size of one record.
const intRecordSize = 4

// AppendINTSection appends an (initially empty or pre-filled) INT
// section to dst.
func AppendINTSection(dst []byte, records []INTRecord) ([]byte, error) {
	if len(records) > 255 {
		return dst, fmt.Errorf("header: %d INT records exceeds section limit", len(records))
	}
	dst = append(dst, TagINT, byte(len(records)))
	for _, r := range records {
		dst = append(dst, r.Tier, byte(r.ID>>8), byte(r.ID), r.Meta)
	}
	return dst, nil
}

func decodeINTSection(data []byte, off int) ([]INTRecord, int, error) {
	if off >= len(data) {
		return nil, off, fmt.Errorf("header: truncated INT section")
	}
	count := int(data[off])
	off++
	if off+count*intRecordSize > len(data) {
		return nil, off, fmt.Errorf("header: truncated INT records")
	}
	records := make([]INTRecord, count)
	for i := range records {
		records[i] = INTRecord{
			Tier: data[off],
			ID:   uint16(data[off+1])<<8 | uint16(data[off+2]),
			Meta: data[off+3],
		}
		off += intRecordSize
	}
	return records, off, nil
}

// intSectionLen returns the full section length (tag byte included) at
// the front of data, or an error.
func intSectionLen(data []byte) (int, error) {
	if len(data) < 2 || data[0] != TagINT {
		return 0, fmt.Errorf("header: expected INT section at front")
	}
	n := 2 + int(data[1])*intRecordSize
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
	// Locate the INT section by structural skipping.
	off := 0
	rest := stream
	for {
		tag, err := PeekTag(rest)
		if err != nil {
			return dst, false, err
		}
		if tag == TagEnd {
			return dst, false, nil // no INT section: nothing to do
		}
		if tag == TagINT {
			break
		}
		next, err2 := skipOne(l, rest)
		if err2 != nil {
			return dst, false, err2
		}
		off += len(rest) - len(next)
		rest = next
	}
	secLen, err := intSectionLen(rest)
	if err != nil {
		return dst, false, err
	}
	count := int(rest[1])
	if count >= 255 {
		return dst, false, nil // section full: drop the record, keep forwarding
	}
	dst = append(dst, stream[:off]...)
	dst = append(dst, TagINT, byte(count+1))
	dst = append(dst, rest[2:secLen]...)
	dst = append(dst, rec.Tier, byte(rec.ID>>8), byte(rec.ID), rec.Meta)
	dst = append(dst, rest[secLen:]...)
	return dst, true, nil
}

// ExtractINT parses the INT section (if any) from a section stream.
func ExtractINT(l Layout, stream []byte) ([]INTRecord, error) {
	rest := stream
	for {
		tag, err := PeekTag(rest)
		if err != nil {
			return nil, err
		}
		switch tag {
		case TagEnd:
			return nil, nil
		case TagINT:
			records, _, err := decodeINTSection(rest, 1)
			return records, err
		}
		next, err := skipOne(l, rest)
		if err != nil {
			return nil, err
		}
		rest = next
	}
}

// skipOne pops exactly one section (INT-aware), unlike SkipSection it
// does not special-case TagEnd.
func skipOne(l Layout, data []byte) ([]byte, error) {
	tag, err := PeekTag(data)
	if err != nil {
		return nil, err
	}
	if tag == TagINT {
		n, err := intSectionLen(data)
		if err != nil {
			return nil, err
		}
		return data[n:], nil
	}
	_, rest, err := SkipSection(l, data)
	return rest, err
}
