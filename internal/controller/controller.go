package controller

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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

// Member is one host of a group with its (non-zero) role.
type Member struct {
	Host topology.HostID
	Role Role
}

// GroupState is the controller's record of one group.
//
// Concurrency: once the group is in the controller, its fields — the
// Members slice and its elements included — are written only while
// holding BOTH the admission mutex and the controller's mutex in write
// mode, so a reader holding either lock sees consistent state (see the
// locking notes on Controller).
type GroupState struct {
	Key GroupKey
	// Members lists each member once, in ascending Host order, so every
	// reader walks it in the order the state stream and the install
	// walk need, without sorting.
	Members []Member
	Enc     *Encoding
}

// membersOf lists a member map in ascending host order.
func membersOf(m map[topology.HostID]Role) []Member {
	ms := make([]Member, 0, len(m))
	for h, r := range m {
		ms = append(ms, Member{Host: h, Role: r})
	}
	slices.SortFunc(ms, func(a, b Member) int { return cmp.Compare(a.Host, b.Host) })
	return ms
}

// find returns the index of host in g.Members and whether it is there;
// when it is not, the index is where it would be inserted.
func (g *GroupState) find(host topology.HostID) (int, bool) {
	return slices.BinarySearchFunc(g.Members, host, byHost)
}

// byHost orders a member against a host: the binary search of members.
func byHost(m Member, h topology.HostID) int { return cmp.Compare(m.Host, h) }

// receives reports whether m holds a receiving role.
func receives(m Member) bool { return m.Role.CanReceive() }

// otherReceiver reports whether a member other than host receives.
func otherReceiver(members []Member, host topology.HostID) bool {
	return slices.ContainsFunc(members, func(m Member) bool { return m.Host != host && m.Role.CanReceive() })
}

// RoleOf returns host's role in the group, zero for a non-member.
func (g *GroupState) RoleOf(host topology.HostID) Role {
	if i, ok := g.find(host); ok {
		return g.Members[i].Role
	}
	return 0
}

// Receivers returns the member hosts with a receiving role, ascending.
func (g *GroupState) Receivers() []topology.HostID {
	return appendHosts(make([]topology.HostID, 0, len(g.Members)), g.Members, Role.CanReceive)
}

// Senders returns the member hosts with a sending role, ascending.
func (g *GroupState) Senders() []topology.HostID {
	return appendHosts(make([]topology.HostID, 0, len(g.Members)), g.Members, Role.CanSend)
}

// appendHosts appends to dst the hosts of members whose role satisfies
// pred, in member order.
func appendHosts(dst []topology.HostID, members []Member, pred func(Role) bool) []topology.HostID {
	for _, m := range members {
		if pred(m.Role) {
			dst = append(dst, m.Host)
		}
	}
	return dst
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
// for concurrent use, with one writer at a time: every create, join,
// leave and removal — and every element of a bulk install — runs whole
// inside one admission transaction (admit.go) under the small
// Occupancy.admit mutex, and its publish step takes the controller
// mutex only for the map, membership and g.Enc stores and their stats
// charges. Only a bulk install's encode workers run outside it.
//
// Locking model (see DESIGN.md, "Controller concurrency model"), in
// acquisition order Occupancy.admit → Controller.mu:
//
//   - Occupancy.admit serializes writers: lookup, encode, publish and
//     occupancy charge of one op; s-rule occupancy lives in
//     atomically-readable counters so batch encode workers consult
//     capacity without blocking.
//   - mu guards the group map and the update stats; GroupState fields
//     are written only under BOTH admit and mu, so holders of either
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

	// scratch is the encoder working memory of create, join and leave;
	// guarded by occ.admit, under which they encode.
	scratch EncodeScratch

	tracer  atomic.Pointer[tracerBox]
	metrics atomic.Pointer[Metrics]
}

// tracerBox wraps the recorder interface so it can live in an atomic
// pointer (hot paths read it without any lock).
type tracerBox struct{ r trace.Recorder }

// New creates a controller for a topology.
func New(topo *topology.Topology, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if floor := headerFloor(topo, cfg); cfg.MaxHeaderBytes < floor {
		return nil, fmt.Errorf("controller: MaxHeaderBytes %d is below the %d bytes of a header with no leaf p-rule", cfg.MaxHeaderBytes, floor)
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

// validateMembers rejects a member the controller cannot hold: a role
// with no or unknown bits, or a host outside the topology (which the
// topology accessors would panic on). Every path that takes members from
// outside — create, join, batch — checks here, so a bad member is an
// ordinary op error that fails the same way on the leader, on replay
// and on every follower; the first bad member in host order is the one
// named.
func (c *Controller) validateMembers(members []Member) error {
	numHosts := c.topo.NumHosts()
	for _, m := range members {
		h, r := m.Host, m.Role
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
// its encoding, installing any s-rules: CreatePrepared of the members
// listed in ascending host order.
func (c *Controller) CreateGroup(key GroupKey, members map[topology.HostID]Role) (*GroupState, error) {
	return c.CreatePrepared(key, membersOf(members))
}

// CreatePrepared registers a group whose members are listed once each in
// ascending host order — the form a WAL record carries and a group keeps
// — and computes its encoding, installing any s-rules. It trusts the
// order and keeps the list as the group's own, so the caller must not
// touch it afterwards. Returns an error if the key exists or a member is
// invalid (see validateMembers). The lookup, the encode and the insert
// are one admission transaction.
func (c *Controller) CreatePrepared(key GroupKey, members []Member) (*GroupState, error) {
	m := c.getMetrics()
	start := time.Now()
	g := &GroupState{Key: key, Members: members}
	var encodeErr error
	_, err := c.occ.admitEncoding(func() (*Encoding, error) {
		if c.Group(key) != nil {
			return nil, fmt.Errorf("controller: group %v already exists", key)
		}
		return nil, c.validateMembers(g.Members)
	}, nil, func(cap CapacityFunc) (*Encoding, error) {
		enc, err := ComputeEncodingInto(c.topo, c.cfg, cap, g.Receivers(), &c.scratch)
		encodeErr = err
		return enc, err
	}, func(enc *Encoding) error {
		return c.insertGroup(g, enc)
	})
	if err != nil {
		if encodeErr != nil {
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
	for _, m := range g.Members {
		c.stats.Hypervisor[m.Host]++
	}
	c.mu.Unlock()
	c.traceEncode(g.Key, enc)
	c.traceControl(trace.KindCreateGroup, g.Key, int64(len(g.Members)), "")
	return nil
}

// RemoveGroup deletes a group, releasing its s-rules.
func (c *Controller) RemoveGroup(key GroupKey) error {
	c.occ.admit.Lock()
	defer c.occ.admit.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[key]
	if !ok {
		return fmt.Errorf("controller: group %v not found", key)
	}
	delete(c.groups, key)
	c.releaseSRulesCharged(g.Enc)
	for _, m := range g.Members {
		c.stats.Hypervisor[m.Host]++
	}
	c.traceControl(trace.KindRemoveGroup, key, int64(len(g.Members)), "")
	c.getMetrics().ops.remove.Inc()
	return nil
}

// Join adds a member (or extends an existing member's role).
//
// Accounting note: the member's hypervisor update and the Join trace
// event are charged only when the operation publishes; a failed
// re-encode leaves the group untouched and emits only the rollback
// trace, so update-rate results never count rolled-back events.
func (c *Controller) Join(key GroupKey, host topology.HostID, role Role) error {
	if err := c.validateMembers([]Member{{Host: host, Role: role}}); err != nil {
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

// errNoChange ends a Join's transaction when the host already holds
// the role: there is nothing to encode, publish or charge.
var errNoChange = errors.New("controller: no membership change")

// setRole is the one membership edit, run whole as one admission
// transaction: it looks the group up, adds role to (join) or takes it
// from (leave) host's membership, rebuilds the encoding when the
// receiver set changed (see incremental.go), and publishes the role,
// the encoding and their switch updates together. Nothing is written
// before the encode succeeds, so a failed op leaves the group as it
// was. The hypervisor counter, the Join/Leave trace and the op metrics
// are charged only on publish.
func (c *Controller) setRole(key GroupKey, host topology.HostID, role Role, join bool) error {
	m := c.getMetrics()
	start := time.Now()
	var g *GroupState
	var next Role
	retree := false
	_, err := c.occ.admitEncoding(func() (*Encoding, error) {
		if g = c.Group(key); g == nil {
			return nil, fmt.Errorf("controller: group %v not found", key)
		}
		old := g.RoleOf(host)
		switch {
		case join && old|role == old:
			return nil, errNoChange
		case join:
			next = old | role
		case old&role == 0:
			return nil, fmt.Errorf("controller: host %d does not hold role in %v", host, key)
		default:
			next = old &^ role
		}
		retree = old.CanReceive() != next.CanReceive()
		return g.Enc, nil
	}, nil, func(cap CapacityFunc) (*Encoding, error) {
		// A sender-only change leaves the tree untouched: only the source
		// hypervisor is updated (§5.1.3a).
		if !retree {
			return g.Enc, nil
		}
		return incrementalEncoding(c.topo, c.cfg, cap, g.Enc, g.Members, host, join, &c.scratch)
	}, func(enc *Encoding) error {
		c.publishRole(g, host, next, enc)
		if retree {
			c.traceEncode(key, enc)
			c.traceControl(trace.KindRecompute, key, int64(host), "")
			m.recomputes.Inc()
		}
		return nil
	})
	switch {
	case errors.Is(err, errNoChange):
		return nil
	case err != nil:
		if retree { // the lookup passed, so the encode failed
			c.traceControl(trace.KindRollback, key, int64(host), err.Error())
			m.rollbacks.Inc()
		}
		return err
	}
	kind, ops, lat := trace.KindLeave, m.ops.leave, m.opLatency.leave
	if join {
		kind, ops, lat = trace.KindJoin, m.ops.join, m.opLatency.join
	}
	c.traceControl(kind, key, int64(host), "")
	ops.Inc()
	lat.Observe(time.Since(start).Seconds())
	return nil
}

// publishRole stores host's next role (zero drops the member; the
// member slice stays sorted) and the group's new encoding under the
// controller's write lock, charging the
// switch updates the change costs: the member's own hypervisor always;
// for a retree also the s-rule diffs to leaf/spine switches, and a
// header refresh to every other sender hypervisor when the shared
// sections changed. A retree flips host's receiving alone: it moves the
// tree bitmaps of host's leaf, of its pod unless another receiver shares
// the leaf, and the pods unless one shares the pod.
func (c *Controller) publishRole(g *GroupState, host topology.HostID, next Role, enc *Encoding) {
	c.mu.Lock()
	defer c.mu.Unlock()
	leaf, pod := c.topo.HostLeaf(host), c.topo.HostPod(host)
	aloneOnLeaf := !otherReceiver(hostBlock(g.Members, int(leaf), c.topo.LeafDownWidth()), host)
	aloneInPod := !otherReceiver(hostBlock(g.Members, int(pod), podHosts(c.topo)), host)
	switch i, present := g.find(host); {
	case next == 0:
		g.Members = slices.Delete(g.Members, i, i+1)
	case present:
		g.Members[i].Role = next
	default:
		g.Members = slices.Insert(g.Members, i, Member{Host: host, Role: next})
	}
	c.stats.Hypervisor[host]++
	oldEnc := g.Enc
	if enc == oldEnc {
		return
	}
	g.Enc = enc
	if !aloneOnLeaf {
		pod = -1
	}
	c.chargeSRules(oldEnc, enc, leaf, pod)
	// A change to the pods or a downstream section → all sender
	// hypervisors re-encode their headers.
	if aloneInPod || !bytes.Equal(oldEnc.DSpineSection, enc.DSpineSection) || !bytes.Equal(oldEnc.DLeafSection, enc.DLeafSection) {
		for _, m := range g.Members {
			if m.Role.CanSend() && m.Host != host {
				c.stats.Hypervisor[m.Host]++
			}
		}
	}
}

// diffSRules calls charge for every switch whose group-table entry
// changes between two encodings: one in only one of the ascending s-rule
// lists a and b, or in both and moved, the one switch whose tree bitmap
// (what an entry holds) changed, or -1.
func diffSRules[K ~int](a, b []K, moved K, charge func(K)) {
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0] < b[0]):
			charge(a[0])
			a = a[1:]
		case len(a) == 0 || b[0] < a[0]:
			charge(b[0])
			b = b[1:]
		default:
			if a[0] == moved {
				charge(a[0])
			}
			a, b = a[1:], b[1:]
		}
	}
}

// chargeSRules counts the switch updates of replacing encoding a by b:
// one per leaf, and one per spine holding a pod's entry, whose s-rule
// entry is added, removed or changed; of the switches in both, the tree
// bitmap changed only on leaf and pod (-1 for none). The caller holds mu.
func (c *Controller) chargeSRules(a, b *Encoding, leaf topology.LeafID, pod topology.PodID) {
	diffSRules(a.LeafSRules, b.LeafSRules, leaf, func(l topology.LeafID) { c.stats.Leaf[l]++ })
	diffSRules(a.SpineSRules, b.SpineSRules, pod, func(p topology.PodID) {
		first, end := SRuleSpines(c.topo, p)
		for s := first; s < end; s++ {
			c.stats.Spine[s]++
		}
	})
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
		header.RuleCount(enc.DLeafSection), header.RuleCount(enc.DSpineSection), len(enc.LeafSRules), len(enc.SpineSRules),
		!enc.Exact(), enc.Redundancy())
	t.Record(trace.Event{
		Cat: trace.CatEncoder, Kind: trace.KindEncode, Tier: trace.TierController,
		VNI: key.Tenant, Group: key.Group,
		Arg:  int64(enc.Redundancy()),
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
	c.chargeSRules(e, &Encoding{}, -1, -1)
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
	if !g.RoleOf(sender).CanSend() {
		return nil, fmt.Errorf("controller: host %d is not a sender in %v", sender, key)
	}
	var s SenderScratch
	var t Tree
	t.Read(c.topo, g.Members)
	return AppendSenderStream(nil, &s, c.topo, c.cfg, g.Enc, &t, sender, c.failures)
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
		if !crossesPods(c.topo, g.Members) {
			return false
		}
		addr := dataplane.GroupAddr{VNI: g.Key.Tenant, Group: g.Key.Group}
		for _, m := range g.Members {
			if !m.Role.CanSend() {
				continue
			}
			outer := dataplane.SenderOuter(c.topo, m.Host, addr)
			if _, core := dataplane.PredictPath(c.topo, outer, m.Host); core == co {
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
// source leaf and preserved through the core). Only a sender in the
// pod, or any sender when the pod has a receiver, can cross it, so only
// their flows are hashed.
func (c *Controller) groupTransitsSpine(g *GroupState, pod topology.PodID, plane int) bool {
	onTree := slices.ContainsFunc(hostBlock(g.Members, int(pod), podHosts(c.topo)), receives)
	addr := dataplane.GroupAddr{VNI: g.Key.Tenant, Group: g.Key.Group}
	for _, m := range g.Members {
		if !m.Role.CanSend() || !onTree && c.topo.HostPod(m.Host) != pod {
			continue
		}
		if p, _ := dataplane.PredictPath(c.topo, dataplane.SenderOuter(c.topo, m.Host, addr), m.Host); p == plane {
			return true
		}
	}
	return false
}

// crossesPods reports whether the receivers of the ascending members
// span more than one pod: whether one follows the first one's pod.
func crossesPods(topo *topology.Topology, members []Member) bool {
	i := slices.IndexFunc(members, receives)
	return i >= 0 && slices.ContainsFunc(members[i+len(hostBlock(members[i:], int(topo.HostPod(members[i].Host)), podHosts(topo))):], receives)
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
		for _, m := range g.Members {
			if m.Role.CanSend() {
				c.stats.Hypervisor[m.Host]++
			}
		}
	}
	return n
}
