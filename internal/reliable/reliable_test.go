package reliable

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	cases := []*Message{
		{Type: TypeData, Seq: 7, Payload: []byte("abc")},
		{Type: TypeRData, Seq: 0, Payload: nil},
		{Type: TypeNAK, Ranges: []Range{{1, 3}, {9, 9}}},
	}
	for _, m := range cases {
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != m.Type || got.Seq != m.Seq || len(got.Ranges) != len(m.Ranges) ||
			string(got.Payload) != string(m.Payload) {
			t.Fatalf("roundtrip: %+v vs %+v", got, m)
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		nil,
		{0x00},
		{magic},
		{magic, 99, 0},
		{magic, TypeData, 1, 2},            // truncated seq
		{magic, TypeNAK, 0},                // zero ranges
		{magic, TypeNAK, 1, 0, 0, 0, 5, 0}, // truncated range
		func() []byte { // inverted range
			b, _ := (&Message{Type: TypeNAK, Ranges: []Range{{5, 5}}}).Marshal()
			b[6] = 9 // First=9 > Last=5
			return b
		}(),
	}
	for i, b := range bad {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestInOrderDelivery(t *testing.T) {
	s := NewSender(16)
	r := NewReceiver(16)
	for i := 0; i < 10; i++ {
		frame, seq, err := s.Next([]byte{byte(i)})
		if err != nil || seq != uint32(i) {
			t.Fatalf("seq=%d err=%v", seq, err)
		}
		out, nak, err := r.Handle(frame)
		if err != nil {
			t.Fatal(err)
		}
		if nak != nil {
			t.Fatalf("unexpected NAK at %d", i)
		}
		if len(out) != 1 || out[0][0] != byte(i) {
			t.Fatalf("delivery at %d: %v", i, out)
		}
	}
	if r.Next() != 10 || len(r.pending) != 0 {
		t.Fatalf("receiver state: next=%d pending=%d", r.Next(), len(r.pending))
	}
}

func TestGapRecovery(t *testing.T) {
	s := NewSender(16)
	r := NewReceiver(16)
	var frames [][]byte
	for i := 0; i < 5; i++ {
		f, _, err := s.Next([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// Deliver 0, drop 1 and 2, deliver 3 and 4.
	if _, nak, _ := r.Handle(frames[0]); nak != nil {
		t.Fatal("NAK on contiguous delivery")
	}
	_, nak, err := r.Handle(frames[3])
	if err != nil {
		t.Fatal(err)
	}
	if nak == nil {
		t.Fatal("no NAK for gap")
	}
	out, nak2, err := r.Handle(frames[4])
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if nak2 == nil {
		t.Fatal("gap persists, expected NAK")
	}
	nm, err := Unmarshal(nak2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nm.Ranges) != 1 || nm.Ranges[0] != (Range{1, 2}) {
		t.Fatalf("NAK ranges = %+v", nm.Ranges)
	}
	// Sender repairs; receiver flushes in order.
	repairs, err := s.HandleNAK(nm)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 2 {
		t.Fatalf("repairs = %d", len(repairs))
	}
	var delivered []byte
	for _, f := range repairs {
		out, _, err := r.Handle(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range out {
			delivered = append(delivered, p[0])
		}
	}
	want := []byte{1, 2, 3, 4}
	if len(delivered) != len(want) {
		t.Fatalf("delivered %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivered %v, want %v", delivered, want)
		}
	}
	if s.Retransmissions != 2 {
		t.Fatalf("retransmissions = %d", s.Retransmissions)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	s := NewSender(8)
	r := NewReceiver(8)
	f, _, _ := s.Next([]byte("x"))
	if _, _, err := r.Handle(f); err != nil {
		t.Fatal(err)
	}
	out, nak, err := r.Handle(f)
	if err != nil || out != nil || nak != nil {
		t.Fatalf("duplicate produced output: %v %v %v", out, nak, err)
	}
	if r.Duplicates != 1 {
		t.Fatalf("duplicates = %d", r.Duplicates)
	}
}

func TestWindowEviction(t *testing.T) {
	s := NewSender(2)
	for i := 0; i < 5; i++ {
		if _, _, err := s.Next([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	nak, _ := (&Message{Type: TypeNAK, Ranges: []Range{{0, 2}}}).Marshal()
	nm, _ := Unmarshal(nak)
	repairs, err := s.HandleNAK(nm)
	if err != nil {
		t.Fatal(err)
	}
	// Only seqs 3,4 are retained (window 2); 0..2 unrecoverable.
	if len(repairs) != 0 {
		t.Fatalf("repairs = %d, want 0", len(repairs))
	}
	if s.UnrecoverableNAKs != 3 {
		t.Fatalf("unrecoverable = %d", s.UnrecoverableNAKs)
	}
}

// TestQuickLossyReorderingRecovers: under arbitrary loss and
// reordering with repeated NAK/repair rounds, every payload is
// eventually delivered exactly once, in order.
func TestQuickLossyReorderingRecovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 5
		s := NewSender(n + 1)
		r := NewReceiver(n + 1)
		var inFlight [][]byte
		for i := 0; i < n; i++ {
			frame, _, err := s.Next([]byte(fmt.Sprintf("m%d", i)))
			if err != nil {
				return false
			}
			if rng.Float64() < 0.3 {
				continue // lost
			}
			inFlight = append(inFlight, frame)
		}
		rng.Shuffle(len(inFlight), func(i, j int) { inFlight[i], inFlight[j] = inFlight[j], inFlight[i] })

		var delivered []string
		var lastNAK []byte
		process := func(frames [][]byte) {
			for _, fr := range frames {
				out, nak, err := r.Handle(fr)
				if err != nil {
					return
				}
				for _, p := range out {
					delivered = append(delivered, string(p))
				}
				if nak != nil {
					lastNAK = nak
				}
			}
		}
		process(inFlight)
		// NAK/repair rounds until quiescent (bounded).
		for round := 0; round < n+2 && len(delivered) < n; round++ {
			if lastNAK == nil {
				// Tail loss: no later frame triggered a NAK. Model the
				// PGM heartbeat: the sender re-announces its tail so
				// the receiver can NAK it.
				if r.Next() < uint32(n) {
					nm := &Message{Type: TypeNAK, Ranges: []Range{{r.Next(), uint32(n - 1)}}}
					b, _ := nm.Marshal()
					lastNAK = b
				} else {
					break
				}
			}
			nm, err := Unmarshal(lastNAK)
			if err != nil {
				return false
			}
			lastNAK = nil
			repairs, err := s.HandleNAK(nm)
			if err != nil {
				return false
			}
			process(repairs)
		}
		if len(delivered) != n {
			return false
		}
		for i, p := range delivered {
			if p != fmt.Sprintf("m%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorFloors(t *testing.T) {
	s := NewSender(0)
	if s.WindowSize != 1 {
		t.Fatalf("window = %d", s.WindowSize)
	}
	r := NewReceiver(-3)
	if r.MaxPending != 1 {
		t.Fatalf("maxPending = %d", r.MaxPending)
	}
	// With a 1-deep reorder buffer, an out-of-order frame fills it and
	// later gaps trigger NAKs without deadlocking.
	sn := NewSender(8)
	f0, _, _ := sn.Next([]byte{0})
	f1, _, _ := sn.Next([]byte{1})
	f2, _, _ := sn.Next([]byte{2})
	_ = f0
	if _, nak, err := r.Handle(f2); err != nil || nak == nil {
		t.Fatalf("gap not NAKed: %v", err)
	}
	// Buffer full: frame dropped but still NAKed.
	out, nak, err := r.Handle(f1)
	if err != nil || len(out) != 0 || nak == nil {
		t.Fatalf("full-buffer handling: out=%v nak=%v err=%v", out, nak, err)
	}
}
