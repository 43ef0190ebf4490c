package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// The oracle decides whether an operation's output is correct. Every
// operation the benchmark times goes through it, and an operation it
// rejects counts as failed, whatever it cost.

// tally counts operations attempted and operations that errored or
// failed the oracle.
type tally struct {
	attempted, failed int
	first             error
}

// check counts one operation; err == nil means it passed.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.first == nil {
		t.first = err
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == nil {
		t.first = o.first
	}
}

// failedRatio is failed operations over operations attempted.
func (t tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// checkSend passes a send only if exactly the receivers other than the
// sender got the frame, intact, with nothing lost and nothing twice.
func checkSend(d *Delivery, receivers []HostID, sender HostID, frame []byte) error {
	if d.Lost != 0 {
		return fmt.Errorf("%d copies lost", d.Lost)
	}
	if d.Duplicates != 0 {
		return fmt.Errorf("%d hosts received a duplicate", d.Duplicates)
	}
	want := 0
	for _, h := range receivers {
		if h == sender {
			continue
		}
		want++
		got, ok := d.Received[h]
		if !ok {
			return fmt.Errorf("member host %d received nothing", h)
		}
		if !bytes.Equal(got, frame) {
			return fmt.Errorf("member host %d received a damaged frame", h)
		}
	}
	if len(d.Received) != want {
		return fmt.Errorf("%d hosts received, the group has %d receivers besides the sender", len(d.Received), want)
	}
	return nil
}

// udpSend is one send of a closed-loop UDP window: the sequence number
// its frame carries and who must receive it.
type udpSend struct {
	Seq       uint64
	Key       GroupKey
	Receivers []HostID // the sender excluded
}

// seqFrame stamps a sequence number into the first 8 bytes of a copy of
// the template frame.
func seqFrame(template []byte, seq uint64) []byte {
	f := append([]byte(nil), template...)
	binary.BigEndian.PutUint64(f, seq)
	return f
}

// checkWindow counts the failed sends of one window from what each host
// received before the deadline: a send fails if a copy is missing,
// arrives twice, carries the wrong group or a damaged frame. A frame
// that belongs to no send of the window (late or stray) fails one more
// send, so no wrong delivery goes uncounted.
func checkWindow(sends []udpSend, got map[HostID][]HostPacket, template []byte) (failed int) {
	type copyKey struct {
		host HostID
		seq  uint64
	}
	bySeq := make(map[uint64]int, len(sends))
	want := make(map[copyKey]bool)
	for i, s := range sends {
		bySeq[s.Seq] = i
		for _, h := range s.Receivers {
			want[copyKey{h, s.Seq}] = false
		}
	}
	bad := make([]bool, len(sends))
	strays := 0
	for h, pkts := range got {
		for _, p := range pkts {
			if len(p.Inner) != len(template) {
				strays++
				continue
			}
			seq := binary.BigEndian.Uint64(p.Inner)
			i, known := bySeq[seq]
			seen, expected := want[copyKey{h, seq}]
			switch {
			case !known || !expected:
				strays++
			case seen, !bytes.Equal(p.Inner[8:], template[8:]),
				p.Addr.VNI != sends[i].Key.Tenant, p.Addr.Group != sends[i].Key.Group:
				bad[i] = true
			default:
				want[copyKey{h, seq}] = true
			}
		}
	}
	for k, seen := range want {
		if !seen {
			bad[bySeq[k.seq]] = true
		}
	}
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return min(len(sends), failed+strays)
}

// checkRecovery passes a restart only if it rebuilt the same groups
// with the same state, byte for byte.
func checkRecovery(wantFingerprint, gotFingerprint string, wantGroups, gotGroups int) error {
	if gotGroups != wantGroups {
		return fmt.Errorf("recovered %d groups, %d were live before the crash", gotGroups, wantGroups)
	}
	if gotFingerprint != wantFingerprint {
		return fmt.Errorf("recovered state fingerprint %.12s differs from pre-crash %.12s", gotFingerprint, wantFingerprint)
	}
	return nil
}
