package reliable

import (
	"errors"
	"fmt"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

// DefaultNAKRetryBudget bounds the repair rounds per ingest/flush when
// Session.NAKRetryBudget is zero. Each round that loses its NAK or its
// RDATA consumes one unit; under loss probability p the chance of
// exhausting the budget is ~p^64.
const DefaultNAKRetryBudget = 64

// Session couples one sender's reliable stream with the per-receiver
// reassembly state, transporting DATA over Elmo multicast and
// NAK/RDATA over ordinary unicast — the PGM deployment shape on an
// Elmo fabric.
type Session struct {
	fab    *fabric.Fabric
	addr   dataplane.GroupAddr
	sender topology.HostID

	s         *Sender
	receivers map[topology.HostID]*Receiver
	delivered map[topology.HostID][][]byte

	// LossInjector, when non-nil, decides whether a receiver's copy of
	// a DATA frame is dropped before reassembly — the test hook
	// standing in for transient congestion or reconfiguration loss.
	LossInjector func(h topology.HostID, seq uint32) bool

	// ControlLoss, when non-nil, decides whether a NAK or RDATA unicast
	// (msgType TypeNAK / TypeRData) from one host to another is lost in
	// flight. The repair loop retries lost control traffic within
	// NAKRetryBudget instead of wedging.
	ControlLoss func(msgType uint8, from, to topology.HostID) bool

	// NAKRetryBudget bounds repair rounds per ingest/flush (zero means
	// DefaultNAKRetryBudget); BackoffFn, when non-nil, is called before
	// each retry with the attempt number (1-based) — wall-clock pacing
	// on live tiers, a no-op on the synchronous fabric.
	NAKRetryBudget int
	BackoffFn      func(attempt int)

	// NAKs counts repair requests processed; NAKRetries counts repair
	// rounds retried after control loss; ControlDrops counts NAK/RDATA
	// unicasts ControlLoss ate; CorruptFrames counts undecodable frames
	// treated as loss; UnicastFallbacks counts publishes that degraded
	// to per-receiver unicast because no multicast sender flow was
	// installed (§3.3 failure degradation).
	NAKs             int
	NAKRetries       int
	ControlDrops     int
	CorruptFrames    int
	UnicastFallbacks int
}

// dropControl applies ControlLoss to one control unicast.
func (sess *Session) dropControl(msgType uint8, from, to topology.HostID) bool {
	if sess.ControlLoss != nil && sess.ControlLoss(msgType, from, to) {
		sess.ControlDrops++
		return true
	}
	return false
}

// retryBudget returns the effective repair-round bound.
func (sess *Session) retryBudget() int {
	if sess.NAKRetryBudget > 0 {
		return sess.NAKRetryBudget
	}
	return DefaultNAKRetryBudget
}

// NewSession builds the session for an installed group. The group must
// already be installed in the fabric (sender flow + receiver filters).
func NewSession(fab *fabric.Fabric, ctrl *controller.Controller, key controller.GroupKey, sender topology.HostID, window int) (*Session, error) {
	g := ctrl.Group(key)
	if g == nil {
		return nil, fmt.Errorf("reliable: group %v not found", key)
	}
	sess := &Session{
		fab:       fab,
		addr:      dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group},
		sender:    sender,
		s:         NewSender(window),
		receivers: make(map[topology.HostID]*Receiver),
		delivered: make(map[topology.HostID][][]byte),
	}
	for _, h := range g.Receivers() {
		if h == sender {
			continue
		}
		sess.receivers[h] = NewReceiver(window)
	}
	return sess, nil
}

// Publish multicasts one payload and runs reassembly (and any repair
// rounds) for every receiver. When the sender has no multicast flow
// installed (the controller found no failure-free path and left the
// group degraded, §3.3), the publish falls back to per-receiver
// unicast so the stream stays live until repair.
func (sess *Session) Publish(payload []byte) error {
	frame, seq, err := sess.s.Next(payload)
	if err != nil {
		return err
	}
	d, err := sess.fab.Send(sess.sender, sess.addr, frame)
	if errors.Is(err, dataplane.ErrNoSenderFlow) {
		sess.UnicastFallbacks++
		for h := range sess.receivers {
			if sess.LossInjector != nil && sess.LossInjector(h, seq) {
				continue
			}
			if _, err := sess.fab.SendUnicast(sess.sender, []topology.HostID{h}, frame); err != nil {
				return err
			}
			if err := sess.ingest(h, frame); err != nil {
				return err
			}
		}
		return nil
	}
	if err != nil {
		return err
	}
	for h := range sess.receivers {
		inner, ok := d.Received[h]
		if !ok {
			continue // copy lost in the fabric; recovered on a later publish
		}
		if sess.LossInjector != nil && sess.LossInjector(h, seq) {
			continue
		}
		if err := sess.ingest(h, inner); err != nil {
			return err
		}
	}
	return nil
}

// ingest feeds one frame to a receiver and services resulting NAKs
// with unicast repairs until the receiver is quiescent. Undecodable
// frames (chaos corruption that survived switch parsing) count as
// loss: a later in-order frame reopens the gap and repair recovers it.
func (sess *Session) ingest(h topology.HostID, frame []byte) error {
	r := sess.receivers[h]
	out, nak, err := r.Handle(frame)
	if err != nil {
		sess.CorruptFrames++
		return nil
	}
	sess.delivered[h] = append(sess.delivered[h], out...)
	return sess.repair(h, nak)
}

// repair runs NAK/RDATA rounds for one receiver until its reorder
// buffer drains or the retry budget is exhausted. A round whose NAK is
// lost retransmits the same NAK; a round whose RDATA is lost rebuilds
// the NAK from the receiver's outstanding gaps — both consume budget
// and invoke BackoffFn, so a single lost control frame can no longer
// wedge recovery.
func (sess *Session) repair(h topology.HostID, nak []byte) error {
	r := sess.receivers[h]
	budget := sess.retryBudget()
	for attempt := 1; nak != nil && attempt <= budget; attempt++ {
		// NAK travels to the sender as unicast...
		if sess.dropControl(TypeNAK, h, sess.sender) {
			sess.NAKRetries++
			if sess.BackoffFn != nil {
				sess.BackoffFn(attempt)
			}
			continue
		}
		if _, err := sess.fab.SendUnicast(h, []topology.HostID{sess.sender}, nak); err != nil {
			return err
		}
		sess.NAKs++
		nm, err := Unmarshal(nak)
		if err != nil {
			return err
		}
		repairs, err := sess.s.HandleNAK(nm)
		if err != nil {
			return err
		}
		if len(repairs) == 0 {
			return nil // window evicted: unrecoverable, stop asking
		}
		for _, rd := range repairs {
			// ...and each repair returns as unicast RDATA.
			if sess.dropControl(TypeRData, sess.sender, h) {
				continue
			}
			if _, err := sess.fab.SendUnicast(sess.sender, []topology.HostID{h}, rd); err != nil {
				return err
			}
			out, _, err := r.Handle(rd)
			if err != nil {
				sess.CorruptFrames++
				continue
			}
			sess.delivered[h] = append(sess.delivered[h], out...)
		}
		// Rebuild from actual receiver state: covers RDATA loss without
		// trusting the per-frame NAK hints.
		if nak = r.OutstandingNAK(); nak != nil {
			sess.NAKRetries++
			if sess.BackoffFn != nil {
				sess.BackoffFn(attempt)
			}
		}
	}
	return nil
}

// Flush performs a final repair round for receivers with tail losses
// (the PGM heartbeat): the sender re-announces its high-water mark and
// services the resulting NAKs.
func (sess *Session) Flush() error {
	high := sess.s.nextSeq
	if high == 0 {
		return nil
	}
	for h, r := range sess.receivers {
		for attempt := 1; r.Next() < high && attempt <= sess.retryBudget(); attempt++ {
			nm := &Message{Type: TypeNAK, Ranges: []Range{{r.Next(), high - 1}}}
			frame, err := nm.Marshal()
			if err != nil {
				return err
			}
			if sess.dropControl(TypeNAK, h, sess.sender) {
				sess.NAKRetries++
				if sess.BackoffFn != nil {
					sess.BackoffFn(attempt)
				}
				continue
			}
			if _, err := sess.fab.SendUnicast(h, []topology.HostID{sess.sender}, frame); err != nil {
				return err
			}
			sess.NAKs++
			repairs, err := sess.s.HandleNAK(nm)
			if err != nil {
				return err
			}
			if len(repairs) == 0 {
				break // window evicted: unrecoverable
			}
			progressed := false
			for _, rd := range repairs {
				if sess.dropControl(TypeRData, sess.sender, h) {
					continue
				}
				if _, err := sess.fab.SendUnicast(sess.sender, []topology.HostID{h}, rd); err != nil {
					return err
				}
				out, _, err := r.Handle(rd)
				if err != nil {
					sess.CorruptFrames++
					continue
				}
				sess.delivered[h] = append(sess.delivered[h], out...)
				progressed = progressed || len(out) > 0
			}
			if r.Next() < high && !progressed {
				sess.NAKRetries++
				if sess.BackoffFn != nil {
					sess.BackoffFn(attempt)
				}
			}
		}
	}
	return nil
}

// Delivered returns the in-order payloads a receiver has consumed.
func (sess *Session) Delivered(h topology.HostID) [][]byte { return sess.delivered[h] }
