// Package reliable layers PGM-style NAK-based reliable delivery on top
// of Elmo's best-effort multicast (paper §7, Reliability: "multicast
// protocols like PGM and SRM may be layered on top of Elmo to support
// applications that require reliable delivery").
//
// The sender stamps every multicast payload with a sequence number and
// retains a retransmission window. Receivers deliver in order, detect
// gaps, and respond with NAKs listing the missing ranges; the sender
// answers each NAK with unicast repair data (RDATA) to the NAKing
// receiver, exactly PGM's recovery shape. All control and repair
// traffic is ordinary unicast — the multicast fabric stays stateless.
package reliable

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Wire message types.
const (
	// TypeData is an original multicast payload.
	TypeData = 1
	// TypeNAK is a receiver's repair request (unicast to the sender).
	TypeNAK = 2
	// TypeRData is retransmitted data (unicast to the NAKer).
	TypeRData = 3
)

const (
	magic      = 0xE7
	headerSize = 6 // magic, type, seq
	// maxNAKRanges bounds one NAK message.
	maxNAKRanges = 60
)

// Range is an inclusive sequence range [First, Last].
type Range struct {
	First, Last uint32
}

// Message is a decoded reliable-layer frame.
type Message struct {
	Type    uint8
	Seq     uint32  // DATA/RDATA sequence
	Ranges  []Range // NAK ranges
	Payload []byte  // DATA/RDATA payload
}

// Marshal encodes a message.
func (m *Message) Marshal() ([]byte, error) {
	switch m.Type {
	case TypeData, TypeRData:
		b := make([]byte, headerSize+len(m.Payload))
		b[0], b[1] = magic, m.Type
		binary.BigEndian.PutUint32(b[2:], m.Seq)
		copy(b[headerSize:], m.Payload)
		return b, nil
	case TypeNAK:
		if len(m.Ranges) == 0 || len(m.Ranges) > maxNAKRanges {
			return nil, fmt.Errorf("reliable: NAK with %d ranges", len(m.Ranges))
		}
		b := make([]byte, 3+8*len(m.Ranges))
		b[0], b[1], b[2] = magic, TypeNAK, byte(len(m.Ranges))
		off := 3
		for _, r := range m.Ranges {
			binary.BigEndian.PutUint32(b[off:], r.First)
			binary.BigEndian.PutUint32(b[off+4:], r.Last)
			off += 8
		}
		return b, nil
	default:
		return nil, fmt.Errorf("reliable: unknown type %d", m.Type)
	}
}

// Unmarshal decodes a frame.
func Unmarshal(b []byte) (*Message, error) {
	if len(b) < 2 || b[0] != magic {
		return nil, fmt.Errorf("reliable: bad frame")
	}
	switch b[1] {
	case TypeData, TypeRData:
		if len(b) < headerSize {
			return nil, fmt.Errorf("reliable: truncated data frame")
		}
		return &Message{Type: b[1], Seq: binary.BigEndian.Uint32(b[2:]), Payload: b[headerSize:]}, nil
	case TypeNAK:
		if len(b) < 3 {
			return nil, fmt.Errorf("reliable: truncated NAK")
		}
		n := int(b[2])
		if n == 0 || n > maxNAKRanges || len(b) < 3+8*n {
			return nil, fmt.Errorf("reliable: malformed NAK")
		}
		ranges := make([]Range, n)
		off := 3
		for i := range ranges {
			ranges[i] = Range{
				First: binary.BigEndian.Uint32(b[off:]),
				Last:  binary.BigEndian.Uint32(b[off+4:]),
			}
			if ranges[i].Last < ranges[i].First {
				return nil, fmt.Errorf("reliable: inverted NAK range")
			}
			off += 8
		}
		return &Message{Type: TypeNAK, Ranges: ranges}, nil
	default:
		return nil, fmt.Errorf("reliable: unknown type %d", b[1])
	}
}

// Sender is the reliable-layer state for one (group, sender) stream.
// It is not safe for concurrent use.
type Sender struct {
	nextSeq uint32
	window  map[uint32][]byte
	// WindowSize bounds retained payloads; older entries are evicted
	// and become unrecoverable (the receiver surfaces a loss event).
	WindowSize int
	// Retransmissions counts RDATA frames produced.
	Retransmissions int
	// UnrecoverableNAKs counts NAK ranges that fell off the window.
	UnrecoverableNAKs int
}

// NewSender creates a sender with the given retransmission window.
func NewSender(windowSize int) *Sender {
	if windowSize < 1 {
		windowSize = 1
	}
	return &Sender{window: make(map[uint32][]byte), WindowSize: windowSize}
}

// Next wraps a payload as the next DATA frame, retaining it for
// repair.
func (s *Sender) Next(payload []byte) ([]byte, uint32, error) {
	seq := s.nextSeq
	s.nextSeq++
	kept := make([]byte, len(payload))
	copy(kept, payload)
	s.window[seq] = kept
	if evict := int(seq) - s.WindowSize + 1; evict >= 0 {
		delete(s.window, uint32(evict))
	}
	frame, err := (&Message{Type: TypeData, Seq: seq, Payload: payload}).Marshal()
	return frame, seq, err
}

// HandleNAK produces the RDATA frames answering a NAK.
func (s *Sender) HandleNAK(nak *Message) ([][]byte, error) {
	if nak.Type != TypeNAK {
		return nil, fmt.Errorf("reliable: not a NAK")
	}
	var out [][]byte
	for _, r := range nak.Ranges {
		for seq := r.First; ; seq++ {
			payload, ok := s.window[seq]
			if !ok {
				s.UnrecoverableNAKs++
			} else {
				frame, err := (&Message{Type: TypeRData, Seq: seq, Payload: payload}).Marshal()
				if err != nil {
					return nil, err
				}
				out = append(out, frame)
				s.Retransmissions++
			}
			if seq == r.Last {
				break
			}
		}
	}
	return out, nil
}

// Receiver reassembles one (group, sender) stream in order.
type Receiver struct {
	next    uint32
	pending map[uint32][]byte
	// MaxPending bounds the reorder buffer.
	MaxPending int
	// Duplicates counts frames discarded as already delivered/buffered.
	Duplicates int
}

// NewReceiver creates a receiver.
func NewReceiver(maxPending int) *Receiver {
	if maxPending < 1 {
		maxPending = 1
	}
	return &Receiver{pending: make(map[uint32][]byte), MaxPending: maxPending}
}

// Handle processes a DATA or RDATA frame: it returns the payloads now
// deliverable in order, plus a NAK frame to unicast to the sender if
// gaps are outstanding (nil when the stream is contiguous).
func (r *Receiver) Handle(frame []byte) (deliverable [][]byte, nak []byte, err error) {
	m, err := Unmarshal(frame)
	if err != nil {
		return nil, nil, err
	}
	if m.Type != TypeData && m.Type != TypeRData {
		return nil, nil, fmt.Errorf("reliable: receiver got type %d", m.Type)
	}
	if m.Seq < r.next {
		r.Duplicates++
		return nil, nil, nil
	}
	if _, dup := r.pending[m.Seq]; dup {
		r.Duplicates++
		return nil, nil, nil
	}
	if len(r.pending) >= r.MaxPending {
		// Reorder buffer full: drop (will be NAKed again).
		return nil, r.buildNAK(m.Seq), nil
	}
	buf := make([]byte, len(m.Payload))
	copy(buf, m.Payload)
	r.pending[m.Seq] = buf
	for {
		p, ok := r.pending[r.next]
		if !ok {
			break
		}
		delete(r.pending, r.next)
		deliverable = append(deliverable, p)
		r.next++
	}
	if len(r.pending) > 0 {
		return deliverable, r.buildNAK(maxSeq(r.pending)), nil
	}
	return deliverable, nil, nil
}

// buildNAK lists the missing ranges in [r.next, highest].
func (r *Receiver) buildNAK(highest uint32) []byte {
	var ranges []Range
	have := make([]uint32, 0, len(r.pending))
	for s := range r.pending {
		have = append(have, s)
	}
	sort.Slice(have, func(i, j int) bool { return have[i] < have[j] })
	cursor := r.next
	for _, s := range have {
		if s > cursor {
			ranges = append(ranges, Range{First: cursor, Last: s - 1})
		}
		if s >= cursor {
			cursor = s + 1
		}
	}
	if cursor <= highest {
		ranges = append(ranges, Range{First: cursor, Last: highest})
	}
	if len(ranges) == 0 {
		return nil
	}
	if len(ranges) > maxNAKRanges {
		ranges = ranges[:maxNAKRanges]
	}
	frame, err := (&Message{Type: TypeNAK, Ranges: ranges}).Marshal()
	if err != nil {
		return nil
	}
	return frame
}

// OutstandingNAK rebuilds the NAK for whatever gaps the receiver still
// has (nil when the stream is contiguous). It is the recovery path
// after a lost RDATA: the repair loop re-requests instead of wedging
// on a NAK that was answered with frames that never arrived.
func (r *Receiver) OutstandingNAK() []byte {
	if len(r.pending) == 0 {
		return nil
	}
	return r.buildNAK(maxSeq(r.pending))
}

// Next reports the next in-order sequence the receiver expects.
func (r *Receiver) Next() uint32 { return r.next }

func maxSeq(m map[uint32][]byte) uint32 {
	var hi uint32
	for s := range m {
		if s > hi {
			hi = s
		}
	}
	return hi
}
