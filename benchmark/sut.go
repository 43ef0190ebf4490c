package main

// sut.go is the only file of the harness that imports the system under
// test. Every call into an internal/* package is made here, and only
// through the forms ROADMAP's engine item keeps: InstallGroupAt /
// UninstallGroupAt (never the epoch-0 InstallGroup), ProcessInto (never
// Process or the Reference* oracles) and internal/telemetry (never
// internal/metrics). A planned deletion therefore breaks at most this
// file, and TestOnlySUTImportsTheSystem keeps it that way.

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"elmo/internal/cluster"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/durable"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/header"
	"elmo/internal/obs"
	"elmo/internal/placement"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/udpfabric"
	"elmo/internal/wal"
)

type (
	HostID     = topology.HostID
	Topology   = topology.Topology
	TopoConfig = topology.Config
	GroupKey   = controller.GroupKey
	Role       = controller.Role
	GroupSpec  = controller.BatchSpec
	CtrlConfig = controller.Config
	Registry   = telemetry.Registry
	Delivery   = fabric.Delivery
	HostPacket = udpfabric.HostPacket
)

const (
	RoleBoth     = controller.RoleBoth
	RoleReceiver = controller.RoleReceiver
)

func newTopology(cfg TopoConfig) (*Topology, error) { return topology.New(cfg) }
func newRegistry() *Registry                        { return telemetry.NewRegistry() }
func paperConfig(r int) CtrlConfig                  { return controller.PaperConfig(r) }

// tenantParams sizes the placement of one workload's tenants.
type tenantParams struct {
	Tenants        int
	MinVMs, MaxVMs int
	MeanVMs        float64
}

// membership is one generated group before roles are drawn.
type membership struct {
	Key   GroupKey
	Hosts []HostID // ascending, distinct
	// TenantHosts are all hosts of the owning tenant (shared between
	// the tenant's groups): the pool joins draw from.
	TenantHosts []HostID
}

const placementSeed = 2019

// generateMemberships places the tenants (<=20 VMs/host, P=4) and draws
// WVE-sized groups of at least 5 members over them.
func generateMemberships(topo *Topology, tp tenantParams, groups int, seed int64) ([]membership, error) {
	dep, err := placement.Place(topo, placement.Config{
		Tenants: tp.Tenants, VMsPerHost: 20, MinVMs: tp.MinVMs, MaxVMs: tp.MaxVMs,
		MeanVMs: tp.MeanVMs, P: 4, Seed: placementSeed,
	})
	if err != nil {
		return nil, err
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{
		TotalGroups: groups, MinSize: 5, Dist: groupgen.WVE, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	tenantHosts := make([][]HostID, len(dep.Tenants))
	for i := range dep.Tenants {
		hs := make([]HostID, len(dep.Tenants[i].VMs))
		for j, vm := range dep.Tenants[i].VMs {
			hs[j] = vm.Host
		}
		sort.Slice(hs, func(a, b int) bool { return hs[a] < hs[b] })
		tenantHosts[i] = hs
	}
	out := make([]membership, len(gs))
	for i := range gs {
		out[i] = membership{
			Key:         GroupKey{Tenant: uint32(gs[i].Tenant) + 1, Group: gs[i].ID + 1},
			Hosts:       gs[i].Hosts,
			TenantHosts: tenantHosts[gs[i].Tenant],
		}
	}
	return out, nil
}

// idealBytes is the denominator of wire_overhead_ratio.
func idealBytes(topo *Topology, sender HostID, receivers []HostID, innerLen int) int {
	return fabric.IdealBytes(topo, sender, receivers, innerLen)
}

// ---- control plane ----------------------------------------------------

// control is a controller with the leadership epoch its data-plane
// installs are stamped with. A bare one (dur == nil) holds groups that
// are bulk-installed once and then only read.
type control struct {
	ctrl  *controller.Controller
	dur   *durable.DurableController
	epoch uint64
}

// recovery is what durable.Open reports about rebuilding state.
type recovery struct {
	Groups        int
	SnapshotS     float64
	ReplayS       float64
	SnapshotBytes int64
}

func newControl(topo *Topology, cfg CtrlConfig, reg *Registry) (*control, error) {
	c, err := controller.New(topo, cfg)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		c.EnableMetrics(reg)
	}
	return &control{ctrl: c, epoch: 1}, nil
}

func openDurable(topo *Topology, cfg CtrlConfig, dir string, noSync bool, reg *Registry) (*control, recovery, error) {
	d, st, err := durable.Open(topo, cfg, durable.Options{Dir: dir, NoSync: noSync, Registry: reg})
	if err != nil {
		return nil, recovery{}, err
	}
	if reg != nil {
		d.Controller().EnableMetrics(reg)
	}
	return &control{ctrl: d.Controller(), dur: d, epoch: d.Epoch()}, recovery{
		Groups:        st.Groups,
		SnapshotS:     st.SnapshotElapsed.Seconds(),
		ReplayS:       st.ReplayElapsed.Seconds(),
		SnapshotBytes: st.SnapshotBytes,
	}, nil
}

// Single control ops, snapshot and close are only ever called on a
// durable controller (lifecycle, bulk-recover and its recovery child).

func (c *control) create(key GroupKey, members map[HostID]Role) error {
	return c.dur.CreateGroup(key, members)
}

func (c *control) join(key GroupKey, h HostID, r Role) error  { return c.dur.Join(key, h, r) }
func (c *control) leave(key GroupKey, h HostID, r Role) error { return c.dur.Leave(key, h, r) }
func (c *control) remove(key GroupKey) error                  { return c.dur.RemoveGroup(key) }

// installBatch bulk-creates groups with one worker per GOMAXPROCS.
func (c *control) installBatch(specs []GroupSpec) (recomputed int, err error) {
	var res *controller.BatchResult
	if c.dur != nil {
		res, err = c.dur.InstallBatch(specs, controller.BatchOptions{})
	} else {
		res, err = c.ctrl.InstallBatch(specs, controller.BatchOptions{})
	}
	if err != nil {
		return 0, err
	}
	if res.Installed != len(specs) {
		return 0, fmt.Errorf("install batch: %d of %d groups installed", res.Installed, len(specs))
	}
	return res.Recomputed, nil
}

func (c *control) snapshot() error {
	_, err := c.dur.Snapshot()
	return err
}

func (c *control) fingerprint() string { return c.ctrl.Fingerprint() }
func (c *control) numGroups() int      { return c.ctrl.NumGroups() }

func (c *control) close() error { return c.dur.Close() }

func (c *control) failSpine(s int) { c.ctrl.FailSpine(topology.SpineID(s)) }
func (c *control) failCore(co int) { c.ctrl.FailCore(topology.CoreID(co)) }

// encodingOf classifies one group's encoding: exact means p-rules alone
// carry it (no s-rule, no default p-rule).
func (c *control) encodingOf(key GroupKey) (usesSRules, hasDefault bool, err error) {
	g := c.ctrl.Group(key)
	if g == nil {
		return false, false, fmt.Errorf("group %v not found", key)
	}
	return g.Enc.UsesSRules(), !g.Enc.Exact(), nil
}

// ---- synchronous fabric ---------------------------------------------------

type syncFabric struct {
	f    *fabric.Fabric
	topo *Topology
}

// newSyncFabric builds the in-process fabric sharing the controller's
// failure set, so both planes agree on which switches are down.
func newSyncFabric(topo *Topology, c *control, reg *Registry) *syncFabric {
	f := fabric.New(topo, c.ctrl.Config().SRuleCapacity)
	f.SetFailures(c.ctrl.Failures())
	if reg != nil {
		f.SetMetrics(fabric.NewMetrics(reg))
	}
	return &syncFabric{f: f, topo: topo}
}

// install pushes the group's current state; senders the failures cut
// off are returned, not installed.
func (s *syncFabric) install(c *control, key GroupKey) (noPath []HostID, err error) {
	return s.f.InstallGroupAt(c.epoch, c.ctrl, key)
}

func (s *syncFabric) uninstall(c *control, key GroupKey) error {
	return s.f.UninstallGroupAt(c.epoch, c.ctrl, key)
}

func groupAddr(key GroupKey) dataplane.GroupAddr {
	return dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
}

func (s *syncFabric) send(sender HostID, key GroupKey, inner []byte) (*Delivery, error) {
	return s.f.Send(sender, groupAddr(key), inner)
}

// ruleHits sums the switches' own counters: which rule kind forwarded
// each packet, and how many packets each tier processed.
type ruleHits struct {
	SRule, PRule, Default int
	LeafPkts, SpinePkts   int
	CorePkts              int
}

func (h ruleHits) minus(o ruleHits) ruleHits {
	return ruleHits{
		SRule: h.SRule - o.SRule, PRule: h.PRule - o.PRule, Default: h.Default - o.Default,
		LeafPkts: h.LeafPkts - o.LeafPkts, SpinePkts: h.SpinePkts - o.SpinePkts, CorePkts: h.CorePkts - o.CorePkts,
	}
}

func (s *syncFabric) ruleHits() ruleHits {
	var h ruleHits
	add := func(sws []*dataplane.NetworkSwitch, pkts *int) {
		for _, sw := range sws {
			st := sw.Stats()
			h.SRule += st.SRuleHits
			h.PRule += st.PRuleHits
			h.Default += st.Defaults
			*pkts += st.Packets
		}
	}
	add(s.f.Leaves, &h.LeafPkts)
	add(s.f.Spines, &h.SpinePkts)
	add(s.f.Cores, &h.CorePkts)
	return h
}

// attachObserver enables the ops plane on the fabric; the returned func
// detaches it. The fabric must be quiet at both calls.
func (s *syncFabric) attachObserver() (detach func()) {
	plane := obs.New(obs.Options{Topology: s.topo, Registry: telemetry.NewRegistry()})
	s.f.SetObserver(plane)
	plane.Enable()
	return func() {
		plane.Disable()
		s.f.SetObserver(nil)
	}
}

// ---- UDP fabric -------------------------------------------------------------

type udpFabric struct{ u *udpfabric.UDPFabric }

// startUDP binds one loopback socket per device of the base fabric
// (whose group state must already be installed) and starts the readers.
func startUDP(base *syncFabric, reg *Registry) (*udpFabric, error) {
	u, err := udpfabric.New(base.f)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		// Re-registering the fabric families returns the handles the
		// base fabric already bumps.
		u.SetMetrics(udpfabric.NewMetrics(reg))
	}
	u.Start()
	return &udpFabric{u: u}, nil
}

func (u *udpFabric) send(sender HostID, key GroupKey, inner []byte) error {
	return u.u.Send(sender, groupAddr(key), inner)
}

func (u *udpFabric) wait(h HostID, n int, timeout time.Duration) ([]HostPacket, error) {
	return u.u.WaitForDeliveries(h, n, timeout)
}

// pending reports frames queued at a host that nobody waited for.
func (u *udpFabric) pending(h HostID) int { return len(u.u.HostRx(h)) }

func (u *udpFabric) close() { u.u.Close() }

// ---- kernel calibrations (traced run only) ----------------------------------

// encodeKernel times ComputeEncodingInto with a warm scratch over the
// given receiver sets.
func encodeKernel(topo *Topology, cfg CtrlConfig, sets [][]HostID) (nsPerOp, allocsPerOp float64, err error) {
	occ := controller.NewOccupancy(topo, cfg.SRuleCapacity)
	capFn := occ.CapacityFunc()
	var scratch controller.EncodeScratch
	i := 0
	step := func() {
		if _, e := controller.ComputeEncodingInto(topo, cfg, capFn, sets[i%len(sets)], &scratch); e != nil {
			err = e
		}
		i++
	}
	for range sets { // warm the scratch on every shape first
		step()
	}
	nsPerOp, allocsPerOp = timeLoop(step)
	return nsPerOp, allocsPerOp, err
}

// clusterKernel times AssignInto with a warm scratch over the leaf
// layers of the given receiver sets.
func clusterKernel(topo *Topology, cfg CtrlConfig, sets [][]HostID) (nsPerOp, allocsPerOp float64, err error) {
	layers := make([][]cluster.Member, 0, len(sets))
	for _, set := range sets {
		enc, e := controller.ComputeEncoding(topo, cfg, controller.NoCapacity(), set)
		if e != nil {
			return 0, 0, e
		}
		leaves := make([]int, 0, len(enc.LeafPorts))
		for l := range enc.LeafPorts {
			leaves = append(leaves, int(l))
		}
		sort.Ints(leaves)
		ms := make([]cluster.Member, len(leaves))
		for i, l := range leaves {
			ms[i] = cluster.Member{Switch: uint16(l), Ports: enc.LeafPorts[topology.LeafID(l)]}
		}
		layers = append(layers, ms)
	}
	cons := cluster.Constraints{
		R: cfg.R, HMax: cfg.LeafRuleLimit, KMax: cfg.KMaxLeaf,
		HasSRuleCapacity: func(uint16) bool { return true },
	}
	var scratch cluster.Scratch
	i := 0
	step := func() {
		cluster.AssignInto(layers[i%len(layers)], cons, &scratch)
		i++
	}
	for range layers {
		step()
	}
	nsPerOp, allocsPerOp = timeLoop(step)
	return nsPerOp, allocsPerOp, nil
}

// batchKernels is the bulk-install breakdown on bare controllers.
type batchKernels struct {
	InstallBatchS, EncodeBatchS float64
	Recomputed                  int
	WriteStateS, ReadStateS     float64
	StateBytes                  int
}

// batchKernelsFor also returns the bare controller it installed the
// specs into, for kernels that need installed groups.
func batchKernelsFor(topo *Topology, cfg CtrlConfig, specs []GroupSpec, receivers [][]HostID) (k batchKernels, installed *control, err error) {
	start := time.Now()
	_, err = controller.EncodeBatch(topo, cfg, controller.NewOccupancy(topo, cfg.SRuleCapacity),
		len(specs), 0,
		func(i int) []HostID { return receivers[i] },
		func(int, *controller.Encoding) error { return nil })
	if err != nil {
		return k, nil, err
	}
	k.EncodeBatchS = time.Since(start).Seconds()

	c, err := controller.New(topo, cfg)
	if err != nil {
		return k, nil, err
	}
	start = time.Now()
	res, err := c.InstallBatch(specs, controller.BatchOptions{})
	if err != nil {
		return k, nil, err
	}
	k.InstallBatchS = time.Since(start).Seconds()
	k.Recomputed = res.Recomputed

	var buf bytes.Buffer
	start = time.Now()
	if err := c.WriteState(&buf); err != nil {
		return k, nil, err
	}
	k.WriteStateS = time.Since(start).Seconds()
	k.StateBytes = buf.Len()

	fresh, err := controller.New(topo, cfg)
	if err != nil {
		return k, nil, err
	}
	start = time.Now()
	if err := fresh.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		return k, nil, err
	}
	k.ReadStateS = time.Since(start).Seconds()
	if fresh.Fingerprint() != c.Fingerprint() {
		return k, nil, fmt.Errorf("state round trip changed the fingerprint")
	}
	return k, &control{ctrl: c, epoch: 1}, nil
}

// sendRef names one (group, sender) pair the workload sends on.
type sendRef struct {
	Key    GroupKey
	Sender HostID
}

// headerKernels is the header codec on the workload's own sender headers.
type headerKernels struct {
	StreamBytesMean    float64
	EncodeNs, DecodeNs float64
}

func headerKernelsFor(topo *Topology, c *control, refs []sendRef) (headerKernels, error) {
	var k headerKernels
	layout := header.LayoutFor(topo)
	hdrs := make([]*header.Header, 0, len(refs))
	streams := make([][]byte, 0, len(refs))
	total := 0
	for _, r := range refs {
		h, err := c.ctrl.HeaderFor(r.Key, r.Sender)
		if err != nil {
			return k, err
		}
		stream, err := header.AppendEncode(nil, layout, h)
		if err != nil {
			return k, err
		}
		hdrs = append(hdrs, h)
		streams = append(streams, stream)
		total += len(stream)
	}
	if len(hdrs) == 0 {
		return k, nil
	}
	k.StreamBytesMean = float64(total) / float64(len(hdrs))
	var err error
	buf := make([]byte, 0, 512)
	i := 0
	k.EncodeNs, _ = timeLoop(func() {
		if _, e := header.AppendEncode(buf[:0], layout, hdrs[i%len(hdrs)]); e != nil {
			err = e
		}
		i++
	})
	k.DecodeNs, _ = timeLoop(func() {
		if _, _, e := header.Decode(layout, streams[i%len(streams)]); e != nil {
			err = e
		}
		i++
	})
	return k, err
}

// dataplaneKernels is the per-packet cost of each forwarding step, on
// packets captured along the workload's own sender paths.
type dataplaneKernels struct {
	EncapNs, LeafNs, SpineNs, CoreNs float64
	ProcessAllocs                    float64
	DeliverNs                        float64
	MarshalNs, UnmarshalNs           float64
}

// capturedPacket is one packet as it arrived at one device.
type capturedPacket struct {
	sw  *dataplane.NetworkSwitch
	hv  *dataplane.Hypervisor
	pkt dataplane.Packet
}

// capturePaths walks each ref's packet through the fabric once with
// ProcessInto and records what every tier (and the first receiving
// host) was handed.
func capturePaths(f *syncFabric, refs []sendRef, inner []byte) (leaf, spine, core, host []capturedPacket, err error) {
	topo := f.topo
	own := func(p dataplane.Packet) dataplane.Packet {
		// Emissions alias the scratch; captured packets outlive it.
		p.Elmo = append([]byte(nil), p.Elmo...)
		return p
	}
	var sc dataplane.SwitchScratch
	for _, r := range refs {
		pkt, e := f.f.Hypervisors[r.Sender].Encap(groupAddr(r.Key), inner)
		if e != nil {
			return nil, nil, nil, nil, e
		}
		leafID := topo.HostLeaf(r.Sender)
		leafSw := f.f.Leaves[leafID]
		leaf = append(leaf, capturedPacket{sw: leafSw, pkt: pkt})
		sc.Reset()
		ems, e := leafSw.ProcessInto(pkt, &sc)
		if e != nil {
			return nil, nil, nil, nil, e
		}
		var up *dataplane.Emission
		for i := range ems {
			if ems[i].Up && up == nil {
				up = &ems[i]
			} else if !ems[i].Up && len(host) < len(refs) {
				h := topo.HostAt(leafID, ems[i].Port)
				host = append(host, capturedPacket{hv: f.f.Hypervisors[h], pkt: own(ems[i].Packet)})
			}
		}
		if up == nil {
			continue
		}
		spineID := topo.LeafUpstream(leafID, up.Port)
		spinePkt := own(up.Packet)
		spineSw := f.f.Spines[spineID]
		spine = append(spine, capturedPacket{sw: spineSw, pkt: spinePkt})
		sc.Reset()
		ems, e = spineSw.ProcessInto(spinePkt, &sc)
		if e != nil {
			return nil, nil, nil, nil, e
		}
		for i := range ems {
			if ems[i].Up {
				coreID := topo.SpineUpstream(spineID, ems[i].Port)
				core = append(core, capturedPacket{sw: f.f.Cores[coreID], pkt: own(ems[i].Packet)})
				break
			}
		}
	}
	return leaf, spine, core, host, nil
}

func dataplaneKernelsFor(f *syncFabric, refs []sendRef, inner []byte) (dataplaneKernels, error) {
	var k dataplaneKernels
	if len(refs) == 0 {
		return k, nil
	}
	leaf, spine, core, host, err := capturePaths(f, refs, inner)
	if err != nil {
		return k, err
	}
	i := 0
	k.EncapNs, _ = timeLoop(func() {
		r := refs[i%len(refs)]
		if _, e := f.f.Hypervisors[r.Sender].Encap(groupAddr(r.Key), inner); e != nil {
			err = e
		}
		i++
	})
	var sc dataplane.SwitchScratch
	tier := func(pkts []capturedPacket) (ns, allocs float64) {
		if len(pkts) == 0 {
			return 0, 0
		}
		return timeLoop(func() {
			p := &pkts[i%len(pkts)]
			sc.Reset()
			if _, e := p.sw.ProcessInto(p.pkt, &sc); e != nil {
				err = e
			}
			i++
		})
	}
	var la, sa, ca float64
	k.LeafNs, la = tier(leaf)
	k.SpineNs, sa = tier(spine)
	k.CoreNs, ca = tier(core)
	k.ProcessAllocs = max(la, sa, ca)
	if len(host) > 0 {
		k.DeliverNs, _ = timeLoop(func() {
			p := &host[i%len(host)]
			p.hv.DeliverFull(p.pkt)
			i++
		})
	}
	layout := header.LayoutFor(f.topo)
	wires := make([][]byte, len(leaf))
	for j := range leaf {
		if wires[j], err = leaf[j].pkt.Marshal(nil); err != nil {
			return k, err
		}
	}
	buf := make([]byte, 0, 4096)
	k.MarshalNs, _ = timeLoop(func() {
		if _, e := leaf[i%len(leaf)].pkt.Marshal(buf[:0]); e != nil {
			err = e
		}
		i++
	})
	k.UnmarshalNs, _ = timeLoop(func() {
		if _, e := dataplane.Unmarshal(layout, wires[i%len(wires)]); e != nil {
			err = e
		}
		i++
	})
	return k, err
}

// walReplayRate streams the log from the given LSN through a no-op and
// reports records per second.
func walReplayRate(durableDir string, from uint64) (recordsPerS float64, records int, err error) {
	start := time.Now()
	_, err = wal.Replay(durableDir+"/wal", from, func(wal.Record) error {
		records++
		return nil
	})
	if err != nil || records == 0 {
		return 0, records, err
	}
	return float64(records) / time.Since(start).Seconds(), records, nil
}
