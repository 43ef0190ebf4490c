package main

import "fmt"

// exactCounts are tallies that depend only on the seed, never on speed:
// they are taken over a fixed set of verified sends, not over the timed
// phase, whose length varies from run to run.
type exactCounts struct {
	Groups, ExactGroups        int
	SRuleGroups, DefaultGroups int
	Sends, Hops, Copies        int
	Spurious                   int
	LinkBytes, IdealBytes      int
}

func (e *exactCounts) classify(c *control, key GroupKey) error {
	srules, def, err := c.encodingOf(key)
	if err != nil {
		return err
	}
	e.Groups++
	if srules {
		e.SRuleGroups++
	}
	if def {
		e.DefaultGroups++
	}
	if !srules && !def {
		e.ExactGroups++
	}
	return nil
}

func (e *exactCounts) addSend(topo *Topology, d *Delivery, sender HostID, receivers []HostID) {
	e.Sends++
	e.Hops += d.Hops
	e.Copies += len(d.Received)
	e.Spurious += d.Spurious
	e.LinkBytes += d.LinkBytes
	e.IdealBytes += idealBytes(topo, sender, receivers, len(frameTemplate))
}

func (e *exactCounts) merge(o exactCounts) {
	e.Groups += o.Groups
	e.ExactGroups += o.ExactGroups
	e.SRuleGroups += o.SRuleGroups
	e.DefaultGroups += o.DefaultGroups
	e.Sends += o.Sends
	e.Hops += o.Hops
	e.Copies += o.Copies
	e.Spurious += o.Spurious
	e.LinkBytes += o.LinkBytes
	e.IdealBytes += o.IdealBytes
}

// pruleCoverage is groups with neither s-rules nor a default p-rule over
// groups.
func (e exactCounts) pruleCoverage() float64 { return ratio(e.ExactGroups, e.Groups) }

// wireOverhead is bytes on links over the bytes ideal multicast would
// move, minus one.
func (e exactCounts) wireOverhead() float64 {
	if e.IdealBytes == 0 {
		return 0
	}
	return float64(e.LinkBytes)/float64(e.IdealBytes) - 1
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// installed is what the three fanout workloads share: groups installed
// once through a bare controller onto a sync fabric, one verified send
// per group for the exact counts, and a seeded send schedule.
type installed struct {
	topo     *Topology
	cfg      CtrlConfig
	groups   []groupInput
	ctl      *control
	fab      *syncFabric
	schedule []sendSlot
	exact    exactCounts
	digest   string
	setup    tally
	reg      *Registry // set in the traced run only
}

func (s *installed) describe() (exactCounts, tally, string) { return s.exact, s.setup, s.digest }

// installGroups generates n groups and installs them. failSwitches fails
// spine 0 and core 1 before anything is encoded.
func installGroups(p params, topoCfg TopoConfig, tp tenantParams, n int, cfg CtrlConfig, failSwitches bool, reg *Registry) (*installed, error) {
	topo, err := newTopology(topoCfg)
	if err != nil {
		return nil, err
	}
	s := &installed{topo: topo, cfg: cfg, reg: reg}
	if s.groups, err = generateGroups(topo, tp, n, p.seed); err != nil {
		return nil, err
	}
	if s.ctl, err = newControl(topo, cfg, reg); err != nil {
		return nil, err
	}
	if failSwitches {
		s.ctl.failSpine(0)
		s.ctl.failCore(1)
	}
	specs := make([]GroupSpec, len(s.groups))
	for i := range s.groups {
		specs[i] = s.groups[i].spec()
	}
	if _, err := s.ctl.installBatch(specs); err != nil {
		return nil, err
	}
	s.fab = newSyncFabric(topo, s.ctl, reg)
	for i := range s.groups {
		g := &s.groups[i]
		noPath, err := s.fab.install(s.ctl, g.Key)
		if err != nil {
			return nil, fmt.Errorf("installing %v: %w", g.Key, err)
		}
		if len(noPath) > 0 {
			// Such a sender degrades to unicast (paper 3.3), which no
			// workload here measures; two failed switches out of 48
			// never cut a sender off on the bench fabric.
			return nil, fmt.Errorf("group %v: %d senders have no healthy path", g.Key, len(noPath))
		}
		if err := s.exact.classify(s.ctl, g.Key); err != nil {
			return nil, err
		}
	}
	s.schedule = sendSchedule(s.groups, p.seed)
	dg := newDigester(p.workload)
	dg.groups(s.groups)
	dg.schedule(s.schedule)
	s.digest = dg.sum()
	for i := range s.groups {
		g := &s.groups[i]
		if d := s.verifiedSend(&s.setup, g, g.Senders[0]); d != nil {
			s.exact.addSend(topo, d, g.Senders[0], g.Receivers)
		}
	}
	return s, nil
}

// verifiedSend sends one frame in process and puts the outcome to the
// oracle; it returns the delivery only if it passed.
func (s *installed) verifiedSend(t *tally, g *groupInput, sender HostID) *Delivery {
	d, err := s.fab.send(sender, g.Key, frameTemplate)
	if err == nil {
		err = checkSend(d, g.Receivers, sender, frameTemplate)
	}
	t.check(err)
	if err != nil {
		return nil
	}
	return d
}

// slot returns the i-th entry of the cycling send schedule.
func (s *installed) slot(i int) (*groupInput, HostID) {
	e := s.schedule[i&(scheduleLen-1)]
	return &s.groups[e.group], e.sender
}

// layerMetrics fills the per-layer metrics every installed fabric can
// measure: exact per-send counts, which rule kind forwarded the packets
// counted in hits, the dataplane kernels on packets captured along the
// first scheduled sender paths, and the encode-side kernels, which do no
// work during these workloads' timed phases and say what setup paid.
// The fabric must be quiet.
func (s *installed) layerMetrics(m metrics, hits ruleHits) (dataplaneKernels, error) {
	exactLayerMetrics(m, s.exact)
	allHits := hits.SRule + hits.PRule + hits.Default
	m.set("dataplane.srule_hit_ratio", ratio(hits.SRule, allHits), "ratio", allHits)
	m.set("dataplane.default_hit_ratio", ratio(hits.Default, allHits), "ratio", allHits)

	refs := make([]sendRef, 64)
	for i := range refs {
		g, sender := s.slot(i)
		refs[i] = sendRef{Key: g.Key, Sender: sender}
	}
	dk, err := dataplaneKernelsFor(s.fab, refs, frameTemplate)
	if err != nil {
		return dk, err
	}
	dk.report(m)
	return dk, controlKernels(m, s.topo, s.cfg, s.ctl, s.groups)
}
