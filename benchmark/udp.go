package main

import (
	"fmt"
	"time"
)

// fanout-udp: the same packets over loopback sockets, one socket and one
// reader goroutine per device. The loop is closed: send a window of 8,
// then wait until every expected copy has arrived (2 s deadline). The
// operation is one window.

const (
	udpGroups   = 2000
	udpWindow   = 8
	udpDeadline = 2 * time.Second
	udpWarmup   = 64 // windows
)

type udpSUT struct {
	// installed.fab is the base fabric: the same state forwarded in
	// process gives the exact wire counts, and the sockets carry the
	// same bytes hop by hop.
	*installed
	udp    *udpFabric
	seq    uint64
	next   int
	before map[string]float64 // registry snapshot at the start of the timed phase
}

func setupUDP(p params, reg *Registry) (*udpSUT, error) {
	// Group state goes into the base fabric before the readers start:
	// the switch tables are not guarded.
	in, err := installGroups(p, udpTopo, udpTenants, max(8, p.scaled(udpGroups)), paperConfig(0), false, reg)
	if err != nil {
		return nil, err
	}
	s := &udpSUT{installed: in}
	if s.udp, err = startUDP(s.fab, reg); err != nil {
		return nil, err
	}
	var warm timed
	for i := 0; i < max(2, p.scaled(udpWarmup)); i++ {
		s.window(&warm, nil, nil)
	}
	s.setup.merge(warm.tally)
	return s, nil
}

func (s *udpSUT) close() error {
	s.udp.close()
	return nil
}

// window sends udpWindow frames and waits for every expected copy.
// Each send is one attempted operation for the oracle; units are
// verified member copies.
func (s *udpSUT) window(out *timed, ph *phase, ctx *spanCtx) {
	sends := make([]udpSend, 0, udpWindow)
	expect := make(map[HostID]int)
	t0 := time.Now()
	ctx.beginOp("op.window", s.next/udpWindow, t0)
	for k := 0; k < udpWindow; k++ {
		g, sender := s.slot(s.next)
		s.next++
		s.seq++
		us := udpSend{Seq: s.seq, Key: g.Key, Receivers: make([]HostID, 0, len(g.Receivers))}
		for _, h := range g.Receivers {
			if h != sender {
				us.Receivers = append(us.Receivers, h)
			}
		}
		c0 := time.Now()
		err := s.udp.send(sender, g.Key, seqFrame(frameTemplate, us.Seq))
		ctx.leaf("udpfabric.send", c0, time.Now())
		if err != nil {
			out.check(err)
			continue
		}
		sends = append(sends, us)
		for _, h := range us.Receivers {
			expect[h]++
		}
	}
	w0 := time.Now()
	got := make(map[HostID][]HostPacket, len(expect))
	timeout := udpDeadline
	for h, n := range expect {
		pkts, err := s.udp.wait(h, n, timeout)
		got[h] = pkts
		if err != nil {
			// The window's deadline has passed; do not wait it out again
			// for every other host.
			timeout = 10 * time.Millisecond
		}
	}
	t1 := time.Now()
	ctx.leaf("udpfabric.wait", w0, t1)
	ctx.leaveAt(t1)

	failed := checkWindow(sends, got, frameTemplate)
	for i := range sends {
		if i < failed {
			out.check(fmt.Errorf("window ending at send %d: %d of %d sends failed the oracle", s.next, failed, len(sends)))
		} else {
			out.check(nil)
		}
	}
	if failed == 0 {
		copies := 0
		for _, us := range sends {
			copies += len(us.Receivers)
		}
		out.units += float64(copies)
		ph.add(t1, float64(copies), t1.Sub(t0))
	}
}

func (s *udpSUT) timedPhase(seconds float64, traced bool) timed {
	if s.reg != nil {
		s.before = s.reg.Snapshot()
	}
	out, ph, ctx := beginPhase(seconds, traced, 0)
	for time.Now().Before(ph.end()) {
		s.window(&out, ph, ctx)
	}
	out.slices = ph.stats()
	// A copy nobody waited for is a wrong delivery too.
	for h := 0; h < s.topo.NumHosts(); h++ {
		if n := s.udp.pending(HostID(h)); n > 0 {
			out.fail(fmt.Errorf("host %d holds %d frames no send expected", h, n))
		}
	}
	return out
}

func (s *udpSUT) layerMetrics(m metrics, tr timed) error {
	delta := s.reg.Snapshot().Delta(s.before)
	if copies := tr.units; copies > 0 {
		m.set("udpfabric.datagrams_per_copy", delta["elmo_udp_datagrams_sent_total"]/copies, "count", int(copies))
	}
	a := mergeSpans(tr.spans)
	m.set("udpfabric.send_call_us", meanMicros(a, "udpfabric.send"), "us", a["udpfabric.send"].Count)
	m.set("udpfabric.window_p50_us", median(tr.slices.p50s), "us", tr.slices.samples)
	m.set("udpfabric.read_retries", delta["elmo_udp_read_retries_total"], "count", 0)
	m.set("udpfabric.host_queue_drops", delta["elmo_udp_host_queue_drops_total"], "count", 0)
	m.set("udpfabric.send_errors", delta["elmo_udpfabric_send_errors_total"], "count", 0)
	m.set("udpfabric.malformed", delta["elmo_udp_malformed_total"], "count", 0)

	// The readers share the base fabric's switches; stop them before
	// the kernels touch those switches from this goroutine.
	s.udp.close()
	_, err := s.installed.layerMetrics(m, s.fab.ruleHits())
	return err
}
