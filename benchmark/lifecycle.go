package main

import (
	"fmt"
	"os"
	"time"
)

// lifecycle: the tenant-visible control path. One closed-loop client
// walks groups through create -> install -> first send, then two joins
// and two leaves (each uninstall -> update -> install -> send), and
// removes the group. (Every group is removed, not every second one:
// groups left behind made peak_rss_mb grow with the number of operations
// a run completed, so a faster system looked worse.) The operation is
// one durable control op carried through to a verified delivery at
// exactly the new member set (a removal is verified by the send being
// refused).
//
// The controller is durable but does not fsync, and there is one client,
// not two. With fsync every op waited ~200 us for the flush of a shared
// virtual disk, a second client added no throughput (the WAL never had
// two records to batch) and runs of one commit spread 23-47% around their
// median, past any bound the benchmark may set: the workload measured the
// host's disk and how fast it wakes an idle vCPU, not this system. Without
// it the log is still written record by record through the WAL's flusher,
// so wal and durable still do most of the work. A second client only
// waited for the first: the sync fabric is not safe for concurrent use.

const (
	// lifecycleGroups are generated; the client cycles through them, and
	// since every life ends in a removal a key is free again long before
	// its turn comes back.
	lifecycleGroups = 8000
	// lifecycleWarmup groups go through their whole life, on one
	// goroutine, before the timed phase.
	lifecycleWarmup = 128
	// The exact counts are taken over the first lifecycleExact groups,
	// which every run completes (a run does ~9,000), so they depend on
	// the seed and not on how far the timed phase got.
	lifecycleExact = 2000
)

type lifecycleSUT struct {
	topo    *Topology
	cfg     CtrlConfig
	groups  []groupInput
	lives   []groupLife
	dir     string
	reg     *Registry
	ctl     *control
	fab     *syncFabric
	next    int // next group to walk through its life
	exactTo int // groups below this index feed the exact counts
	exact   exactCounts
	digest  string
	setup   tally
	before  map[string]float64 // registry snapshot at the start of the timed phase
}

func (s *lifecycleSUT) describe() (exactCounts, tally, string) { return s.exact, s.setup, s.digest }

func setupLifecycle(p params, reg *Registry) (*lifecycleSUT, error) {
	topo, err := newTopology(benchTopo)
	if err != nil {
		return nil, err
	}
	s := &lifecycleSUT{topo: topo, cfg: paperConfig(0), reg: reg}
	if s.groups, err = generateGroups(topo, benchTenants, p.scaled(lifecycleGroups), p.seed); err != nil {
		return nil, err
	}
	s.lives = generateLives(s.groups, p.seed)
	dg := newDigester(p.workload)
	dg.groups(s.groups)
	dg.lives(s.lives)
	s.digest = dg.sum()

	if s.dir, err = os.MkdirTemp(p.tmpDir, "lifecycle-"); err != nil {
		return nil, err
	}
	if s.ctl, _, err = openDurable(topo, s.cfg, s.dir, true, reg); err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.fab = newSyncFabric(topo, s.ctl, reg)
	s.exactTo = p.scaled(lifecycleExact)
	c := &lifecycleClient{s: s}
	for s.next < min(p.scaled(lifecycleWarmup), len(s.groups)) {
		c.life(s.next)
		s.next++
	}
	s.setup = c.out.tally
	s.exact = c.exact
	return s, nil
}

func (s *lifecycleSUT) close() error {
	err := s.ctl.close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// lifecycleClient is the closed-loop caller.
type lifecycleClient struct {
	s     *lifecycleSUT
	ctx   *spanCtx
	ph    *phase // nil during the warm-up
	out   timed
	exact exactCounts
	ops   int
}

// op runs one durable control op through to its verified delivery.
// update is the durable call; receivers is the member set after it (nil
// after a removal). uninstall says whether the group is installed now.
func (c *lifecycleClient) op(kind string, g *groupInput, exact, uninstall bool, update func() error, receivers []HostID) {
	s := c.s
	sender := g.Senders[0]
	start := time.Now()
	c.ctx.beginOp("op."+kind, c.ops, start)
	c.ops++
	var err error
	if uninstall {
		t0 := time.Now()
		err = s.fab.uninstall(s.ctl, g.Key)
		c.ctx.leaf("fabric.uninstall", t0, time.Now())
	}
	if err == nil {
		t0 := time.Now()
		err = update()
		c.ctx.leaf("durable."+kind, t0, time.Now())
	}
	var d *Delivery
	var sendErr error
	if err == nil && receivers != nil {
		t0 := time.Now()
		_, err = s.fab.install(s.ctl, g.Key)
		c.ctx.leaf("fabric.install", t0, time.Now())
	}
	if err == nil {
		t0 := time.Now()
		d, sendErr = s.fab.send(sender, g.Key, frameTemplate)
		name := "fabric.send"
		if kind == "create" {
			name = "fabric.first_send"
		}
		c.ctx.leaf(name, t0, time.Now())
	}
	switch {
	case err != nil:
	case receivers == nil:
		// A removed group must be gone from the data plane too.
		if sendErr == nil {
			err = fmt.Errorf("send to removed group %v was accepted", g.Key)
		}
	case sendErr != nil:
		err = sendErr
	default:
		err = checkSend(d, receivers, sender, frameTemplate)
	}
	end := time.Now()
	c.ctx.leaveAt(end)
	c.out.check(err)
	if err != nil {
		return
	}
	c.out.units++
	if receivers == nil {
		// A removal has no delivery to wait for: work done, but not a
		// latency sample.
		c.ph.work(end, 1)
		return
	}
	c.ph.add(end, 1, end.Sub(start))
	if exact {
		c.exact.addSend(s.topo, d, sender, receivers)
	}
}

// life walks group i through its whole life.
func (c *lifecycleClient) life(i int) {
	s := c.s
	exact := i < s.exactTo
	i %= len(s.groups)
	g := &s.groups[i]
	members := append([]HostID(nil), g.Receivers...)
	c.op("create", g, exact, false, func() error { return s.ctl.create(g.Key, g.Members) }, members)
	if exact {
		if err := c.exact.classify(s.ctl, g.Key); err != nil {
			c.out.fail(err)
		}
	}
	for _, u := range s.lives[i].Updates {
		if u.Join {
			members = insertHost(members, u.Host)
			c.op("join", g, exact, true, func() error { return s.ctl.join(g.Key, u.Host, RoleReceiver) }, members)
		} else {
			members = removeHost(members, u.Host)
			c.op("leave", g, exact, true, func() error { return s.ctl.leave(g.Key, u.Host, RoleBoth) }, members)
		}
	}
	c.op("remove", g, exact, true, func() error { return s.ctl.remove(g.Key) }, nil)
}

func insertHost(hs []HostID, h HostID) []HostID {
	for _, x := range hs {
		if x == h {
			return hs
		}
	}
	return append(hs, h)
}

func removeHost(hs []HostID, h HostID) []HostID {
	for i, x := range hs {
		if x == h {
			return append(hs[:i], hs[i+1:]...)
		}
	}
	return hs
}

// timedPhase walks groups through their lives until the time is up,
// finishing the life it is in. units are durable control ops completed.
func (s *lifecycleSUT) timedPhase(seconds float64, traced bool) timed {
	if s.reg != nil {
		s.before = s.reg.Snapshot()
	}
	out, ph, ctx := beginPhase(seconds, traced, 0)
	c := &lifecycleClient{s: s, ph: ph, ctx: ctx}
	for deadline := ph.end(); time.Now().Before(deadline); s.next++ {
		c.life(s.next)
	}
	out.tally, out.units = c.out.tally, c.out.units
	s.exact.merge(c.exact)
	out.slices = ph.stats()
	return out
}

func (s *lifecycleSUT) layerMetrics(m metrics, tr timed) error {
	a := mergeSpans(tr.spans)
	delta := s.reg.Snapshot().Delta(s.before)
	walLayerMetrics(m, delta, tr.units)

	ctrlUs := func(op string) float64 {
		return histMeanMicros(delta, "elmo_controller_op_duration_seconds", `op="`+op+`"`)
	}
	m.set("controller.create_us", ctrlUs("create"), "us", a["durable.create"].Count)
	m.set("controller.join_us", ctrlUs("join"), "us", a["durable.join"].Count)
	m.set("controller.leave_us", ctrlUs("leave"), "us", a["durable.leave"].Count)

	// The durable layer logs before it applies and waits for the flush
	// after, so the controller op runs inside the commit interval: its
	// children cover max(commit, apply) of the span, not their sum.
	commit := m["wal.commit_us"].Value
	self := func(span string, apply float64) float64 {
		return max(0, meanMicros(a, span)-max(commit, apply))
	}
	m.set("durable.create_us", self("durable.create", ctrlUs("create")), "us", a["durable.create"].Count)
	updates := a["durable.join"].Count + a["durable.leave"].Count
	if updates > 0 {
		mean := float64((a["durable.join"].Total + a["durable.leave"].Total).Nanoseconds()) / 1e3 / float64(updates)
		apply := (ctrlUs("join")*float64(a["durable.join"].Count) + ctrlUs("leave")*float64(a["durable.leave"].Count)) / float64(updates)
		m.set("durable.member_update_us", max(0, mean-max(commit, apply)), "us", updates)
	}
	m.set("durable.remove_us", self("durable.remove", 0), "us", a["durable.remove"].Count)

	m.set("fabric.install_us", meanMicros(a, "fabric.install"), "us", a["fabric.install"].Count)
	m.set("fabric.uninstall_us", meanMicros(a, "fabric.uninstall"), "us", a["fabric.uninstall"].Count)
	m.set("fabric.first_send_us", meanMicros(a, "fabric.first_send"), "us", a["fabric.first_send"].Count)
	m.set("fabric.send_us", meanMicros(a, "fabric.send"), "us", a["fabric.send"].Count)

	exactLayerMetrics(m, s.exact)
	return controlKernels(m, s.topo, s.cfg, nil, s.groups[:min(len(s.groups), 2000)])
}
