package main

import (
	"fmt"
	"time"
)

// fanout-sync and fanout-degraded: groups installed once, then a closed
// loop of fabric.Send calls from one goroutine over a seeded schedule.

const (
	fanoutGroups = 2000
	// warmupSends fill caches, the forwarding pool and the heap before
	// the timed phase.
	warmupSends = 8192
)

type fanoutSUT struct {
	*installed
	hitsBefore ruleHits // switch counters at the start of the timed phase
	obsSeconds float64  // length of each observer on/off comparison run
}

func (s *fanoutSUT) close() error { return nil }

func fanoutConfig(degraded bool) CtrlConfig {
	if !degraded {
		return paperConfig(0)
	}
	// R=4 shares bitmaps, 24 group-table entries per switch run out, and
	// INT makes every hop rewrite the header: the slow paths of the
	// same dataplane layer. Over seeds 1..12 this leaves 7-9% of the
	// groups on s-rules and 11-13% on a default p-rule.
	cfg := paperConfig(4)
	cfg.SRuleCapacity = 24
	cfg.EnableINT = true
	return cfg
}

// setupFanout installs the groups on the bench fabric, verifies one send
// per group and warms up. The degraded variant fails spine 0 and core 1
// first.
func setupFanout(p params, degraded bool, reg *Registry) (*fanoutSUT, error) {
	in, err := installGroups(p, benchTopo, benchTenants, p.scaled(fanoutGroups), fanoutConfig(degraded), degraded, reg)
	if err != nil {
		return nil, err
	}
	// Without these shares the degraded workload would not leave the
	// p-rule fast path and would measure nothing fanout-sync does not.
	// (At smoke-test scale there are too few groups to hold it to that.)
	if e := in.exact; degraded && p.scale <= 1 && (e.SRuleGroups*20 < e.Groups || e.DefaultGroups*20 < e.Groups) {
		return nil, fmt.Errorf("degraded fabric too healthy: %d of %d groups use s-rules, %d a default p-rule; need 5%% each",
			e.SRuleGroups, e.Groups, e.DefaultGroups)
	}
	for i := 0; i < p.scaled(warmupSends); i++ {
		g, sender := in.slot(i)
		in.verifiedSend(&in.setup, g, sender)
	}
	return &fanoutSUT{installed: in}, nil
}

// timedPhase sends for the given time, one send at a time, verifying
// each. units are verified member copies.
func (s *fanoutSUT) timedPhase(seconds float64, traced bool) timed {
	s.hitsBefore = s.fab.ruleHits()
	s.obsSeconds = min(0.5, seconds/4)
	out, ph, ctx := beginPhase(seconds, traced, 0)
	deadline := ph.end()
	for i, now := 0, ph.start; now.Before(deadline); i++ {
		g, sender := s.slot(i)
		t0 := time.Now()
		d, err := s.fab.send(sender, g.Key, frameTemplate)
		now = time.Now()
		if err == nil {
			err = checkSend(d, g.Receivers, sender, frameTemplate)
		}
		out.check(err)
		if err == nil {
			copies := float64(len(d.Received))
			out.units += copies
			ph.add(now, copies, now.Sub(t0))
		}
		if ctx != nil {
			ctx.beginOp("op.send", i, t0)
			ctx.leaf("fabric.send", t0, now)
			ctx.leaveAt(time.Now())
		}
	}
	out.slices = ph.stats()
	return out
}

// sendsPerSecond runs bare sends (no oracle, no sampling) for the given
// time; used for the observer on/off comparison.
func (s *fanoutSUT) sendsPerSecond(seconds float64) (rate float64, err error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	n := 0
	for time.Now().Before(deadline) {
		for k := 0; k < 64; k++ {
			g, sender := s.slot(n)
			if _, e := s.fab.send(sender, g.Key, frameTemplate); e != nil {
				err = e
			}
			n++
		}
	}
	return float64(n) / time.Since(start).Seconds(), err
}

func (s *fanoutSUT) layerMetrics(m metrics, tr timed) error {
	hits := s.fab.ruleHits().minus(s.hitsBefore)
	dk, err := s.installed.layerMetrics(m, hits)
	if err != nil {
		return err
	}
	a := mergeSpans(tr.spans)
	m.set("fabric.send_us", meanMicros(a, "fabric.send"), "us", a["fabric.send"].Count)
	if sends := float64(tr.attempted); sends > 0 && tr.units > 0 {
		// What a send costs beyond the unit costs of the steps it is
		// made of, per switch traversal: the fabric's own event loop.
		deliveries := tr.units/sends + ratio(s.exact.Spurious, s.exact.Sends)
		unit := dk.EncapNs + dk.DeliverNs*deliveries +
			(dk.LeafNs*float64(hits.LeafPkts)+dk.SpineNs*float64(hits.SpinePkts)+dk.CoreNs*float64(hits.CorePkts))/sends
		hops := float64(hits.LeafPkts+hits.SpinePkts+hits.CorePkts) / sends
		m.set("fabric.self_ns_per_hop", (meanMicros(a, "fabric.send")*1e3-unit)/hops, "ns", tr.attempted)
	}

	n := 0
	_, allocs := timeLoop(func() {
		g, sender := s.slot(n)
		if _, e := s.fab.send(sender, g.Key, frameTemplate); e != nil {
			err = e
		}
		n++
	})
	if err != nil {
		return err
	}
	m.set("fabric.send_allocs", allocs, "count", n)

	off, err := s.sendsPerSecond(s.obsSeconds)
	if err != nil {
		return err
	}
	detach := s.fab.attachObserver()
	on, err := s.sendsPerSecond(s.obsSeconds)
	detach()
	if err != nil {
		return err
	}
	m.set("obs.observer_overhead_ratio", on/off, "ratio", 0)
	return nil
}
