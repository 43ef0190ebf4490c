package controller

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"elmo/internal/bitmap"
	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// GroupKey identifies a multicast group: the tenant's VNI plus the
// tenant-scoped group index. Tenants pick group addresses independently
// (address-space isolation); the provider never mixes groups across
// VNIs.
type GroupKey struct {
	Tenant uint32 // 24-bit VNI
	Group  uint32 // 24-bit tenant-scoped group index (maps to 239/8)
}

func (k GroupKey) String() string { return fmt.Sprintf("vni=%d group=%d", k.Tenant, k.Group) }

// compareKeys orders group keys by (tenant, group), ascending.
func compareKeys(a, b GroupKey) int {
	if c := cmp.Compare(a.Tenant, b.Tenant); c != 0 {
		return c
	}
	return cmp.Compare(a.Group, b.Group)
}

// Role describes how a member participates in a group (§5.1.3a).
type Role uint8

const (
	// RoleSender members transmit only; they need headers but are not
	// part of the multicast tree.
	RoleSender Role = 1 << iota
	// RoleReceiver members receive only.
	RoleReceiver
	// RoleBoth members send and receive.
	RoleBoth = RoleSender | RoleReceiver
)

// CanSend reports whether the role includes sending.
func (r Role) CanSend() bool { return r&RoleSender != 0 }

// CanReceive reports whether the role includes receiving.
func (r Role) CanReceive() bool { return r&RoleReceiver != 0 }

// GroupState is the controller's record of one group.
//
// Concurrency: fields are written only while holding BOTH the group's
// own mutex and the controller's mutex in write mode, so a reader
// holding either lock sees consistent state (see the locking notes on
// Controller).
type GroupState struct {
	Key     GroupKey
	Members map[topology.HostID]Role
	Enc     *Encoding

	// mu serializes membership operations on this group; it is acquired
	// before (never after) the admission mutex and the controller mutex.
	mu sync.Mutex
	// removed marks a group deleted from the group map while a racing
	// membership operation was waiting on mu.
	removed bool
}

// Receivers returns the member hosts with a receiving role, ascending.
func (g *GroupState) Receivers() []topology.HostID {
	return g.hostsWith(Role.CanReceive)
}

// Senders returns the member hosts with a sending role, ascending.
func (g *GroupState) Senders() []topology.HostID {
	return g.hostsWith(Role.CanSend)
}

func (g *GroupState) hostsWith(pred func(Role) bool) []topology.HostID {
	hosts := make([]topology.HostID, 0, len(g.Members))
	for h, r := range g.Members {
		if pred(r) {
			hosts = append(hosts, h)
		}
	}
	slices.Sort(hosts)
	return hosts
}

// UpdateStats counts control-plane rule updates issued to each switch
// class, the quantity Table 2 reports. Core switches never receive
// updates under Elmo (rules ride in packets), so a single counter
// documents that invariant.
type UpdateStats struct {
	Hypervisor map[topology.HostID]int
	Leaf       map[topology.LeafID]int
	Spine      map[topology.SpineID]int
	Core       int
}

func newUpdateStats() UpdateStats {
	return UpdateStats{
		Hypervisor: make(map[topology.HostID]int),
		Leaf:       make(map[topology.LeafID]int),
		Spine:      make(map[topology.SpineID]int),
	}
}

// Total returns the sum of all update counts.
func (u *UpdateStats) Total() int {
	return u.Core + sumCounts(u.Hypervisor) + sumCounts(u.Leaf) + sumCounts(u.Spine)
}

// sumCounts totals one switch class's per-switch update counters.
func sumCounts[K comparable](m map[K]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Controller is the logically-centralized Elmo controller. It is safe
// for concurrent use: the encoder phase of every membership operation
// runs outside all locks (speculatively, against atomic occupancy
// reads); admission — the s-rule capacity transaction — serializes on
// the small Occupancy.admit mutex; and the publish step inside it takes
// the controller mutex only for the map insert or g.Enc store and its
// stats charges.
//
// Locking model (see DESIGN.md, "Controller concurrency model"), in
// acquisition order GroupState.mu → Occupancy.admit → Controller.mu:
//
//   - g.mu serializes membership operations per group.
//   - Occupancy.admit serializes the validate→commit transaction;
//     s-rule occupancy lives in atomically-readable counters so
//     concurrent encoder runs consult capacity without blocking.
//   - mu guards the group map and the update stats; GroupState fields
//     are written only under BOTH g.mu and mu, so holders of either
//     read them safely. The failure set is read under mu's read lock
//     and mutated only under its write lock (failure events are rare;
//     header assembly is not).
type Controller struct {
	topo     *topology.Topology
	cfg      Config
	failures *topology.FailureSet

	occ *Occupancy

	mu     sync.RWMutex
	groups map[GroupKey]*GroupState
	stats  UpdateStats

	// scratch pools encoder working memory across membership
	// operations: Join/Leave may run concurrently (per-group locking),
	// so a pool rather than a single per-controller scratch.
	scratch sync.Pool

	tracer  atomic.Pointer[tracerBox]
	metrics atomic.Pointer[Metrics]
}

// tracerBox wraps the recorder interface so it can live in an atomic
// pointer (hot paths read it without any lock).
type tracerBox struct{ r trace.Recorder }

func (c *Controller) getScratch() *EncodeScratch {
	if s, ok := c.scratch.Get().(*EncodeScratch); ok {
		return s
	}
	return new(EncodeScratch)
}

func (c *Controller) putScratch(s *EncodeScratch) { c.scratch.Put(s) }

// New creates a controller for a topology.
func New(topo *topology.Topology, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		topo:     topo,
		cfg:      cfg,
		failures: topology.NewFailureSet(),
		occ:      NewOccupancy(topo, cfg.SRuleCapacity),
		groups:   make(map[GroupKey]*GroupState),
		stats:    newUpdateStats(),
	}
	c.metrics.Store(&Metrics{}) // telemetry off: nil handles do nothing
	return c, nil
}

// Topology returns the fabric the controller manages.
func (c *Controller) Topology() *topology.Topology { return c.topo }

// Config returns the controller's encoding configuration.
func (c *Controller) Config() Config { return c.cfg }

// Failures exposes the failure set (for fabric wiring and tests).
func (c *Controller) Failures() *topology.FailureSet { return c.failures }

// SetTracer attaches a flight recorder: group lifecycle, churn,
// recompute, failure charging, and rollback events are recorded under
// the control category, encoding runs under the encoder category. Nil
// or disabled recorders cost one check per control-plane operation.
func (c *Controller) SetTracer(r trace.Recorder) {
	c.tracer.Store(&tracerBox{r: r})
}

// getTracer loads the recorder without locks (recorders are
// internally synchronized).
func (c *Controller) getTracer() trace.Recorder {
	if b := c.tracer.Load(); b != nil {
		return b.r
	}
	return nil
}

// traceControl records a control-plane event for a group.
func (c *Controller) traceControl(kind trace.Kind, key GroupKey, arg int64, note string) {
	t := c.getTracer()
	if !trace.On(t, trace.CatControl) {
		return
	}
	t.Record(trace.Event{
		Cat: trace.CatControl, Kind: kind, Tier: trace.TierController,
		VNI: key.Tenant, Group: key.Group, Arg: arg, Note: note,
	})
}

// traceFailure records a failure/repair event for a switch.
func (c *Controller) traceFailure(kind trace.Kind, sw int32, impacted int) {
	t := c.getTracer()
	if !trace.On(t, trace.CatControl) {
		return
	}
	t.Record(trace.Event{
		Cat: trace.CatControl, Kind: kind, Tier: trace.TierController,
		Switch: sw, Arg: int64(impacted),
	})
}

// Stats returns a deep copy of the accumulated update counters. The
// snapshot is the caller's to keep: concurrent mutators can never race
// with it (the old contract returned a pointer aliasing live state).
func (c *Controller) Stats() *UpdateStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &UpdateStats{
		Hypervisor: maps.Clone(c.stats.Hypervisor),
		Leaf:       maps.Clone(c.stats.Leaf),
		Spine:      maps.Clone(c.stats.Spine),
		Core:       c.stats.Core,
	}
}

// ResetStats clears the update counters (between experiment phases).
func (c *Controller) ResetStats() {
	c.mu.Lock()
	c.stats = newUpdateStats()
	c.mu.Unlock()
}

// Group returns the state for a key, or nil.
func (c *Controller) Group(key GroupKey) *GroupState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.groups[key]
}

// NumGroups returns the number of live groups.
func (c *Controller) NumGroups() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.groups)
}

// GroupKeys returns the keys of all live groups in ascending
// (tenant, group) order.
func (c *Controller) GroupKeys() []GroupKey {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sortedKeysLocked()
}

// sortedKeysLocked lists the live group keys in ascending (tenant,
// group) order; the caller holds mu.
func (c *Controller) sortedKeysLocked() []GroupKey {
	keys := make([]GroupKey, 0, len(c.groups))
	for k := range c.groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// Occupancy exposes the live s-rule occupancy counters.
func (c *Controller) Occupancy() *Occupancy { return c.occ }

// LeafSRuleCount returns the s-rule occupancy of a leaf switch.
func (c *Controller) LeafSRuleCount(l topology.LeafID) int { return c.occ.LeafCount(l) }

// SpineSRuleCount returns the s-rule occupancy of a physical spine.
func (c *Controller) SpineSRuleCount(s topology.SpineID) int { return c.occ.SpineCount(s) }

// validateMembers rejects a membership the controller cannot hold: a
// role with no or unknown bits, or a host outside the topology (which
// the topology accessors would panic on). Every path that takes
// members from outside — create, join, batch, restore — checks here, so
// a bad member is an ordinary op error that fails the same way on the
// leader, on replay and on every follower.
func (c *Controller) validateMembers(members map[topology.HostID]Role) error {
	numHosts := c.topo.NumHosts()
	for h, r := range members {
		if r == 0 || r&^RoleBoth != 0 {
			return fmt.Errorf("controller: host %d has invalid role %d", h, r)
		}
		if h < 0 || int(h) >= numHosts {
			return fmt.Errorf("controller: host %d outside topology [0,%d)", h, numHosts)
		}
	}
	return nil
}

// CreateGroup registers a group with the given members and computes
// its encoding, installing any s-rules. Returns an error if the key
// exists or a member is invalid (see validateMembers).
func (c *Controller) CreateGroup(key GroupKey, members map[topology.HostID]Role) (*GroupState, error) {
	m := c.getMetrics()
	start := time.Now()
	if c.Group(key) != nil {
		return nil, fmt.Errorf("controller: group %v already exists", key)
	}
	if err := c.validateMembers(members); err != nil {
		return nil, err
	}
	g := &GroupState{Key: key, Members: make(map[topology.HostID]Role, len(members))}
	for h, r := range members {
		g.Members[h] = r
	}

	// Speculative encode outside all locks; validated at admission.
	receivers := g.Receivers()
	scratch := c.getScratch()
	defer c.putScratch(scratch)
	encode := func(cap CapacityFunc) (*Encoding, error) {
		return ComputeEncodingInto(c.topo, c.cfg, cap, receivers, scratch)
	}
	sp := newCapRecorder(c.occ, nil)
	sp.enc, sp.err = encode(sp.capacity())
	exists := false
	_, err := c.occ.admitEncoding(nil, sp, encode, func(enc *Encoding) error {
		err := c.insertGroup(g, enc)
		exists = err != nil
		return err
	})
	if err != nil {
		if !exists {
			m.rollbacks.Inc()
			c.traceControl(trace.KindRollback, key, -1, err.Error())
		}
		return nil, err
	}
	m.ops.create.Inc()
	m.opLatency.create.Observe(time.Since(start).Seconds())
	return g, nil
}

// insertGroup is the publish step of a new group's admission (create,
// batch): the duplicate check, the map insert and the flow-state charge
// of every member hypervisor (senders: encap rules + headers; receivers:
// group delivery rules) under one write lock of the controller.
func (c *Controller) insertGroup(g *GroupState, enc *Encoding) error {
	c.mu.Lock()
	if _, ok := c.groups[g.Key]; ok {
		c.mu.Unlock()
		return fmt.Errorf("controller: group %v already exists", g.Key)
	}
	g.Enc = enc
	c.groups[g.Key] = g
	for h := range g.Members {
		c.stats.Hypervisor[h]++
	}
	c.mu.Unlock()
	c.traceEncode(g.Key, enc)
	c.traceControl(trace.KindCreateGroup, g.Key, int64(len(g.Members)), "")
	return nil
}

// RemoveGroup deletes a group, releasing its s-rules.
func (c *Controller) RemoveGroup(key GroupKey) error {
	g := c.Group(key)
	if g == nil {
		return fmt.Errorf("controller: group %v not found", key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c.occ.admit.Lock()
	defer c.occ.admit.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.removed || c.groups[key] != g {
		return fmt.Errorf("controller: group %v not found", key)
	}
	g.removed = true
	delete(c.groups, key)
	c.releaseSRulesCharged(g.Enc)
	for h := range g.Members {
		c.stats.Hypervisor[h]++
	}
	c.traceControl(trace.KindRemoveGroup, key, int64(len(g.Members)), "")
	c.getMetrics().ops.remove.Inc()
	return nil
}

// Join adds a member (or extends an existing member's role).
//
// Accounting note: the member's hypervisor update and the Join trace
// event are charged only after the operation commits; a failed retree
// rolls back membership and emits only the rollback trace, so
// update-rate results never count rolled-back events.
func (c *Controller) Join(key GroupKey, host topology.HostID, role Role) error {
	if err := c.validateMembers(map[topology.HostID]Role{host: role}); err != nil {
		return err
	}
	return c.setRole(key, host, role, true)
}

// Leave removes a role from a member, dropping the member entirely
// when no role remains. As with Join, the hypervisor update and Leave
// trace are charged only after a successful commit.
func (c *Controller) Leave(key GroupKey, host topology.HostID, role Role) error {
	return c.setRole(key, host, role, false)
}

// setRole is the one membership edit: it adds role to (join) or takes
// it from (leave) host's membership of the group, retrees when the
// receiver set changed, and on a retree error puts the membership back
// so state matches the (rolled back) encoding. The hypervisor counter,
// the Join/Leave trace and the op metrics are charged only on commit.
func (c *Controller) setRole(key GroupKey, host topology.HostID, role Role, join bool) error {
	m := c.getMetrics()
	start := time.Now()
	g := c.Group(key)
	if g == nil {
		return fmt.Errorf("controller: group %v not found", key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.removed {
		return fmt.Errorf("controller: group %v not found", key)
	}
	old, present := g.Members[host]
	next := old &^ role
	kind, ops, lat := trace.KindLeave, m.ops.leave, m.opLatency.leave
	if join {
		if present && old|role == old {
			return nil // no change
		}
		next = old | role
		kind, ops, lat = trace.KindJoin, m.ops.join, m.opLatency.join
	} else if !present || old&role == 0 {
		return fmt.Errorf("controller: host %d does not hold role in %v", host, key)
	}
	// setMember stores a role under the controller lock; none drops the
	// member.
	setMember := func(r Role) {
		c.mu.Lock()
		if r == 0 {
			delete(g.Members, host)
		} else {
			g.Members[host] = r
		}
		c.mu.Unlock()
	}
	setMember(next)
	// A sender-only change leaves the tree untouched: only the source
	// hypervisor is updated (§5.1.3a).
	if old.CanReceive() != next.CanReceive() {
		if err := c.retree(g, host, join); err != nil {
			setMember(old)
			c.traceControl(trace.KindRollback, key, int64(host), err.Error())
			m.rollbacks.Inc()
			return err
		}
	}
	c.mu.Lock()
	c.stats.Hypervisor[host]++ // the member's own hypervisor always updates
	c.mu.Unlock()
	c.traceControl(kind, key, int64(host), "")
	ops.Inc()
	lat.Observe(time.Since(start).Seconds())
	return nil
}

// retree re-encodes a group after a single-receiver change (changed
// joined when joined, left otherwise) and charges the resulting switch
// updates: s-rule diffs to leaf/spine switches, and header refreshes
// to every sender hypervisor when the shared downstream sections
// changed.
//
// The encoder phase runs outside all locks against a speculative
// capacity view (the old encoding's s-rules count as released) and is
// incremental: it delta-patches the old encoding's cached tree and
// re-runs clustering only for layers whose membership changed (see
// incremental.go). The admission transaction (admit.go) falls back to a
// full recompute when a capacity answer changed and, on an encode error,
// leaves the old s-rules charged; its publish step stores the new
// encoding and its stats charges under the controller lock. Callers
// hold g.mu.
func (c *Controller) retree(g *GroupState, changed topology.HostID, joined bool) error {
	oldEnc := g.Enc
	scratch := c.getScratch()
	defer c.putScratch(scratch)
	full := func(cap CapacityFunc) (*Encoding, error) {
		return ComputeEncodingInto(c.topo, c.cfg, cap, g.Receivers(), scratch)
	}
	sp := newCapRecorder(c.occ, oldEnc)
	if oldEnc != nil {
		sp.enc, sp.err = incrementalEncoding(c.topo, c.cfg, sp.capacity(), oldEnc, changed, joined, scratch)
	} else {
		sp.enc, sp.err = full(sp.capacity())
	}
	_, err := c.occ.admitEncoding(oldEnc, sp, full, func(enc *Encoding) error {
		c.publishRetree(g, enc, changed)
		return nil
	})
	if err != nil {
		c.traceControl(trace.KindRollback, g.Key, -1, err.Error())
		return err
	}
	c.traceEncode(g.Key, g.Enc)
	c.traceControl(trace.KindRecompute, g.Key, int64(changed), "")
	c.getMetrics().recomputes.Inc()
	return nil
}

// publishRetree replaces g's encoding and charges the switch updates
// the change costs, under the controller's write lock.
func (c *Controller) publishRetree(g *GroupState, enc *Encoding, changed topology.HostID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldEnc := g.Enc
	g.Enc = enc
	// Leaf s-rule diffs.
	for l, bm := range encLeafSRules(oldEnc) {
		nbm, ok := enc.LeafSRules[l]
		if !ok || !nbm.Equal(bm) {
			c.stats.Leaf[l]++
		}
	}
	for l := range enc.LeafSRules {
		if _, ok := encLeafSRules(oldEnc)[l]; !ok {
			c.stats.Leaf[l]++
		}
	}
	// Spine s-rule diffs (replicated per physical spine of the pod).
	chargePod := func(p topology.PodID) {
		for plane := 0; plane < c.topo.Config().SpinesPerPod; plane++ {
			c.stats.Spine[c.topo.SpineAt(p, plane)]++
		}
	}
	for p, bm := range encSpineSRules(oldEnc) {
		nbm, ok := enc.SpineSRules[p]
		if !ok || !nbm.Equal(bm) {
			chargePod(p)
		}
	}
	for p := range enc.SpineSRules {
		if _, ok := encSpineSRules(oldEnc)[p]; !ok {
			chargePod(p)
		}
	}
	// Shared downstream change → all sender hypervisors re-encode
	// their headers.
	if !sharedEqual(oldEnc, enc) {
		for h, r := range g.Members {
			if r.CanSend() && h != changed {
				c.stats.Hypervisor[h]++
			}
		}
	}
}

func encLeafSRules(e *Encoding) map[topology.LeafID]bitmap.Bitmap {
	if e == nil {
		return nil
	}
	return e.LeafSRules
}

func encSpineSRules(e *Encoding) map[topology.PodID]bitmap.Bitmap {
	if e == nil {
		return nil
	}
	return e.SpineSRules
}

// traceEncode records one encoding run with the clustering constraints
// it ran under (Hmax, Kmax, R, Fmax) and what came out: p-rule counts
// per layer, s-rule installations, default fallback, and the redundancy
// the sharing introduced.
func (c *Controller) traceEncode(key GroupKey, enc *Encoding) {
	t := c.getTracer()
	if !trace.On(t, trace.CatEncoder) {
		return
	}
	note := fmt.Sprintf(
		"Hmax=%d/%d Kmax=%d/%d R=%d Fmax=%d -> dleaf=%d dspine=%d srules=%d+%d default=%t redundancy=%d",
		c.cfg.LeafRuleLimit, c.cfg.SpineRuleLimit, c.cfg.KMaxLeaf, c.cfg.KMaxSpine,
		c.cfg.R, c.cfg.SRuleCapacity,
		len(enc.DLeaf), len(enc.DSpine), len(enc.LeafSRules), len(enc.SpineSRules),
		!enc.Exact(), enc.Redundancy)
	t.Record(trace.Event{
		Cat: trace.CatEncoder, Kind: trace.KindEncode, Tier: trace.TierController,
		VNI: key.Tenant, Group: key.Group,
		Arg:  int64(enc.Redundancy),
		Note: note,
	})
}

// releaseSRulesCharged releases an encoding's occupancy and counts the
// removals as switch updates (group teardown). Callers hold the
// admission mutex and the controller's write lock.
func (c *Controller) releaseSRulesCharged(e *Encoding) {
	if e == nil {
		return
	}
	c.occ.Release(e)
	for l := range e.LeafSRules {
		c.stats.Leaf[l]++
	}
	for p := range e.SpineSRules {
		for plane := 0; plane < c.topo.Config().SpinesPerPod; plane++ {
			c.stats.Spine[c.topo.SpineAt(p, plane)]++
		}
	}
}

// sharedEqual reports whether two encodings put the same
// sender-independent sections on the wire: the same downstream rules in
// the same order, the same defaults and the same pods.
func sharedEqual(a, b *Encoding) bool {
	if a == nil || b == nil {
		return a == b
	}
	rulesEqual := func(x, y header.PRule) bool {
		return slices.Equal(x.Switches, y.Switches) && x.Bitmap.Equal(y.Bitmap)
	}
	defEqual := func(x, y *bitmap.Bitmap) bool {
		return (x == nil) == (y == nil) && (x == nil || x.Equal(*y))
	}
	return slices.EqualFunc(a.DSpine, b.DSpine, rulesEqual) && defEqual(a.DSpineDefault, b.DSpineDefault) &&
		slices.EqualFunc(a.DLeaf, b.DLeaf, rulesEqual) && defEqual(a.DLeafDefault, b.DLeafDefault) &&
		a.Pods.Equal(b.Pods)
}

// SenderStream returns the Elmo section stream (through TagEnd) the
// hypervisor of a sender in a group pushes onto its packets — the bytes
// InstallSenderFlowAt takes. The sender must hold a sending role. Safe
// to call concurrently with membership operations and with other
// reads; only the controller's read lock is taken.
func (c *Controller) SenderStream(key GroupKey, sender topology.HostID) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, ok := c.groups[key]
	if !ok {
		return nil, fmt.Errorf("controller: group %v not found", key)
	}
	if !g.Members[sender].CanSend() {
		return nil, fmt.Errorf("controller: host %d is not a sender in %v", sender, key)
	}
	var s SenderScratch
	return AppendSenderStream(nil, &s, c.topo, c.cfg, g.Enc, sender, c.failures)
}

// HeaderFor returns the decoded view of SenderStream, for callers that
// inspect a sender's header section by section.
func (c *Controller) HeaderFor(key GroupKey, sender topology.HostID) (*header.Header, error) {
	stream, err := c.SenderStream(key, sender)
	if err != nil {
		return nil, err
	}
	h, _, err := header.Decode(header.LayoutFor(c.topo), stream)
	return h, err
}

// FailSpine marks a spine failed and refreshes the upstream rules of
// affected groups, charging one hypervisor update per sender whose
// header changes. It returns the number of groups impacted.
//
// A group is impacted only if one of its flows actually transits the
// failed switch: the controller replicates the data plane's ECMP
// choice per sender flow (dataplane.PredictPath), so groups whose
// traffic rides other planes keep multipathing untouched — this is
// what keeps the §5.1.3b impact fractions low.
func (c *Controller) FailSpine(s topology.SpineID) int {
	return c.failureEvent(trace.KindFailSpine, "fail_spine", int32(s),
		func() { c.failures.FailSpine(s) }, c.transitsSpine(s))
}

// RepairSpine clears a spine failure (headers revert to multipathing;
// the hypervisors refreshed are those of the groups the failure had
// impacted).
func (c *Controller) RepairSpine(s topology.SpineID) int {
	return c.failureEvent(trace.KindRepairSpine, "repair_spine", int32(s),
		func() { c.failures.RepairSpine(s) }, c.transitsSpine(s))
}

// FailCore marks a core failed and refreshes affected groups' upstream
// rules, returning the number of groups impacted (groups with a sender
// flow hashed through that core while crossing pods).
func (c *Controller) FailCore(co topology.CoreID) int {
	return c.failureEvent(trace.KindFailCore, "fail_core", int32(co),
		func() { c.failures.FailCore(co) }, c.transitsCore(co))
}

// RepairCore clears a core failure.
func (c *Controller) RepairCore(co topology.CoreID) int {
	return c.failureEvent(trace.KindRepairCore, "repair_core", int32(co),
		func() { c.failures.RepairCore(co) }, c.transitsCore(co))
}

// failureEvent is the one body of the four failure and repair events:
// under the controller's write lock it flips the switch in the failure
// set (mark), charges one hypervisor update per sender of every group
// whose flows transit the switch, and reports the event.
func (c *Controller) failureEvent(kind trace.Kind, label string, sw int32, mark func(), transits func(*GroupState) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	mark()
	n := c.chargeFailure(transits)
	c.traceFailure(kind, sw, n)
	c.countFailure(label, n)
	return n
}

// transitsSpine selects the groups with a sender flow crossing spine s.
func (c *Controller) transitsSpine(s topology.SpineID) func(*GroupState) bool {
	pod, plane := c.topo.SpinePod(s), c.topo.SpinePlane(s)
	return func(g *GroupState) bool { return c.groupTransitsSpine(g, pod, plane) }
}

// transitsCore selects the groups with a sender flow hashed through
// core co while crossing pods.
func (c *Controller) transitsCore(co topology.CoreID) func(*GroupState) bool {
	return func(g *GroupState) bool {
		if g.Enc.Pods.PopCount() <= 1 {
			return false
		}
		addr := dataplane.GroupAddr{VNI: g.Key.Tenant, Group: g.Key.Group}
		for h, r := range g.Members {
			if !r.CanSend() {
				continue
			}
			outer := dataplane.SenderOuter(c.topo, h, addr)
			if _, core := dataplane.PredictPath(c.topo, outer, h); core == co {
				return true
			}
		}
		return false
	}
}

// groupTransitsSpine reports whether any sender flow of the group
// would cross spine (pod, plane) on a healthy fabric: as the upstream
// spine (sender in the pod, flow hashed to the plane) or as the
// downstream entry spine of a member pod (the plane is chosen at the
// source leaf and preserved through the core).
func (c *Controller) groupTransitsSpine(g *GroupState, pod topology.PodID, plane int) bool {
	if _, present := g.Enc.PodLeaves[pod]; !present {
		// The pod can still be the sender's pod for sender-only hosts.
		found := false
		for h, r := range g.Members {
			if r.CanSend() && c.topo.HostPod(h) == pod {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	addr := dataplane.GroupAddr{VNI: g.Key.Tenant, Group: g.Key.Group}
	for h, r := range g.Members {
		if !r.CanSend() {
			continue
		}
		outer := dataplane.SenderOuter(c.topo, h, addr)
		p, _ := dataplane.PredictPath(c.topo, outer, h)
		if p != plane {
			continue
		}
		if c.topo.HostPod(h) == pod {
			return true // upstream spine of this sender
		}
		if _, member := g.Enc.PodLeaves[pod]; member {
			return true // downstream entry spine into a member pod
		}
	}
	return false
}

// chargeFailure runs with the controller's write lock held: group
// state reads are safe because writers hold it too.
func (c *Controller) chargeFailure(affected func(*GroupState) bool) int {
	n := 0
	for _, g := range c.groups {
		if g.Enc == nil || !affected(g) {
			continue
		}
		n++
		for h, r := range g.Members {
			if r.CanSend() {
				c.stats.Hypervisor[h]++
			}
		}
	}
	return n
}
