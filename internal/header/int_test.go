package header

import (
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/topology"
)

func TestINTEncodeDecodeRoundTrip(t *testing.T) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	h := &Header{
		INTEnabled: true,
		INT: []INTRecord{
			{Tier: INTTierLeaf, ID: 3, Meta: 60},
			{Tier: INTTierCore, ID: 1, Meta: 58},
		},
	}
	wire, err := Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != EncodedSize(l, h) {
		t.Fatalf("size mismatch: %d vs %d", len(wire), EncodedSize(l, h))
	}
	dec, _, err := Decode(l, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.INTEnabled || len(dec.INT) != 2 {
		t.Fatalf("decoded INT = %+v", dec.INT)
	}
	if dec.INT[0] != h.INT[0] || dec.INT[1] != h.INT[1] {
		t.Fatalf("records mismatch: %+v", dec.INT)
	}
}

func TestINTEmptySection(t *testing.T) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	wire, err := Encode(l, &Header{INTEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decode(l, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.INTEnabled || len(dec.INT) != 0 {
		t.Fatalf("empty INT mishandled: %+v", dec)
	}
	records, err := AppendINT(nil, l, wire)
	if err != nil || len(records) != 0 {
		t.Fatalf("AppendINT = %v, %v", records, err)
	}
}

// appendINT is AppendINTRecordTo into a fresh buffer; a stream with no
// room for the record comes back unchanged.
func appendINT(l Layout, stream []byte, rec INTRecord) ([]byte, error) {
	out, ok, err := AppendINTRecordTo(l, nil, stream, rec)
	if err != nil || !ok {
		return stream, err
	}
	return out, nil
}

func TestAppendINTRecord(t *testing.T) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	core := bitmap.FromPorts(l.CoreDown, 2)
	h := &Header{Core: &core, INTEnabled: true}
	wire, err := Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte{}, wire...)
	r1 := INTRecord{Tier: INTTierLeaf, ID: 7, Meta: 63}
	s1, err := appendINT(l, wire, r1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(wire)+4 {
		t.Fatalf("grew by %d, want 4", len(s1)-len(wire))
	}
	// The input stream must be untouched (shared between copies).
	for i := range orig {
		if wire[i] != orig[i] {
			t.Fatal("AppendINTRecordTo mutated its input")
		}
	}
	r2 := INTRecord{Tier: INTTierSpine, ID: 2, Meta: 62}
	s2, err := appendINT(l, s1, r2)
	if err != nil {
		t.Fatal(err)
	}
	records, err := AppendINT(nil, l, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0] != r1 || records[1] != r2 {
		t.Fatalf("records = %+v", records)
	}
	// The stream must still decode after popping the core section.
	_, rest, err := SkipSection(l, s2)
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := AppendINT(nil, l, rest)
	if err != nil || len(recs2) != 2 {
		t.Fatalf("after pop: %v %v", recs2, err)
	}
}

func TestAppendINTRecordWithoutSection(t *testing.T) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	core := bitmap.FromPorts(l.CoreDown, 1)
	wire, err := Encode(l, &Header{Core: &core})
	if err != nil {
		t.Fatal(err)
	}
	out, err := appendINT(l, wire, INTRecord{Tier: 1, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(wire) {
		t.Fatal("record added to a stream without an INT section")
	}
}

func TestINTSectionFullDropsRecord(t *testing.T) {
	l := LayoutFor(topology.MustNew(topology.PaperExample()))
	records := make([]INTRecord, 255)
	for i := range records {
		records[i] = INTRecord{Tier: 1, ID: uint16(i)}
	}
	wire, err := Encode(l, &Header{INTEnabled: true, INT: records})
	if err != nil {
		t.Fatal(err)
	}
	out, err := appendINT(l, wire, INTRecord{Tier: 2, ID: 999})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(wire) {
		t.Fatal("overfull INT section grew")
	}
}
