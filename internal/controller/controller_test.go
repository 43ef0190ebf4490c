package controller

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
)

func paperTopo() *topology.Topology { return topology.MustNew(topology.PaperExample()) }

// figure3Receivers returns the members of the paper's Fig. 3 group:
// Ha, Hb (L0); Hk (L5); Hm, Hn (L6); Hp (L7).
// Host numbering: L0 hosts 0-7, L5 hosts 40-47, L6 hosts 48-55, L7
// hosts 56-63.
func figure3Receivers() []topology.HostID {
	return []topology.HostID{0, 1, 40, 48, 49, 63}
}

// receiving lists hosts, in any order, as the ascending members of a
// group in which each only receives.
func receiving(hosts []topology.HostID) []Member {
	ms := make([]Member, len(hosts))
	for i, h := range hosts {
		ms[i] = Member{Host: h, Role: RoleReceiver}
	}
	slices.SortFunc(ms, func(a, b Member) int { return cmp.Compare(a.Host, b.Host) })
	return ms
}

func testConfig(r int) Config {
	return Config{
		MaxHeaderBytes: 325,
		SpineRuleLimit: 2,
		LeafRuleLimit:  30,
		KMaxSpine:      2,
		KMaxLeaf:       2,
		R:              r,
		SRuleCapacity:  4,
	}
}

// TestEffectiveLeafLimitAtPackedWidths pins the leaf p-rule budget the
// 325-byte header leaves once identifiers are packed at the layout's
// width: at paper scale (4-bit pod, 10-bit leaf IDs) 26 rules at Kmax=2
// and 22 at Kmax=4, where 2-byte identifiers left 23 and 17; the
// benchmark's fabrics stay at LeafRuleLimit.
func TestEffectiveLeafLimitAtPackedWidths(t *testing.T) {
	for _, c := range []struct {
		name string
		topo topology.Config
		k    int
		want int
	}{
		{"paper K=2", topology.FacebookFabric(), 2, 26},
		{"paper K=4", topology.FacebookFabric(), 4, 22},
		{"bench", topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4}, 2, 30},
		{"udp", topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 4, HostsPerLeaf: 8, CoresPerPlane: 2}, 2, 30},
	} {
		cfg := PaperConfig(0)
		cfg.KMaxLeaf, cfg.KMaxSpine = c.k, c.k
		if got := effectiveLeafLimit(topology.MustNew(c.topo), cfg); got != c.want {
			t.Errorf("%s: effectiveLeafLimit = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestNewRefusesBudgetBelowHeaderFloor: the encoder clamps its leaf
// p-rule limit at 0, so a MaxHeaderBytes below the fixed sections, the
// worst-case spine section and a lone leaf default rule (25 B here, 27 B
// with the sender's INT section) once let a controller write a state its
// own ReadState refused. Every budget from 1 to 40 is either refused by
// New or holds a group whose state round-trips and whose senders all get
// a header.
func TestNewRefusesBudgetBelowHeaderFloor(t *testing.T) {
	members := map[topology.HostID]Role{0: RoleBoth, 1: RoleReceiver, 40: RoleReceiver, 48: RoleBoth, 49: RoleReceiver, 63: RoleReceiver}
	withINT := testConfig(0)
	withINT.EnableINT = true
	for _, tc := range []struct {
		cfg   Config
		floor int
	}{{testConfig(0), 25}, {withINT, 27}} {
		for budget := 1; budget <= 40; budget++ {
			cfg := tc.cfg
			cfg.MaxHeaderBytes = budget
			c, err := New(paperTopo(), cfg)
			if (err != nil) != (budget < tc.floor) {
				t.Fatalf("INT %v, MaxHeaderBytes %d: New error %v, want one exactly below %d", cfg.EnableINT, budget, err, tc.floor)
			}
			if err != nil {
				continue
			}
			key := GroupKey{Tenant: 1, Group: 1}
			if _, err := c.CreateGroup(key, members); err != nil {
				t.Fatalf("INT %v, MaxHeaderBytes %d: %v", cfg.EnableINT, budget, err)
			}
			for h, role := range members {
				if _, err := c.SenderStream(key, h); role.CanSend() && err != nil {
					t.Fatalf("INT %v, MaxHeaderBytes %d: sender %d: %v", cfg.EnableINT, budget, h, err)
				}
			}
			var state bytes.Buffer
			if err := c.WriteState(&state); err != nil {
				t.Fatal(err)
			}
			back, _ := New(paperTopo(), cfg)
			if err := back.ReadState(&state); err != nil {
				t.Fatalf("INT %v, MaxHeaderBytes %d: the controller's own state is refused: %v", cfg.EnableINT, budget, err)
			}
			if back.Fingerprint() != c.Fingerprint() {
				t.Fatalf("INT %v, MaxHeaderBytes %d: the state round trip changed the controller", cfg.EnableINT, budget)
			}
		}
	}
}

// intBudgetController is a controller of the evaluation fabric with INT
// on, no s-rule space and a 316-byte header budget, holding group (1, 1):
// port 0 of leaves 0 to 4 in each of the 12 pods, every member sending.
// Its 60 leaves need more leaf p-rules than the budget has room for, so
// its leaf section is as large as the leaf limit lets it be.
func intBudgetController(tb testing.TB) (*Controller, GroupKey) {
	tb.Helper()
	topo := topology.MustNew(topology.FacebookFabric())
	cfg := PaperConfig(0)
	cfg.SRuleCapacity, cfg.EnableINT, cfg.MaxHeaderBytes = 0, true, 316
	c, err := New(topo, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	members := map[topology.HostID]Role{}
	for pod := range topo.NumPods() {
		for i := range 5 {
			members[topology.HostID((pod*topo.Config().LeavesPerPod+i)*topo.Config().HostsPerLeaf)] = RoleBoth
		}
	}
	key := GroupKey{Tenant: 1, Group: 1}
	if _, err := c.CreateGroup(key, members); err != nil {
		tb.Fatal(err)
	}
	return c, key
}

// TestINTHeaderFitsBudget: the header floor counts the 2-byte INT
// section every sender writes under EnableINT (58 B here, leaf limit
// 25), so a group that fills its leaf p-rule budget gives every sender a
// header. A floor without it (56 B, leaf limit 26) let each of this
// group's 60 senders assemble 318 bytes against a 316-byte budget.
func TestINTHeaderFitsBudget(t *testing.T) {
	c, key := intBudgetController(t)
	if floor, limit := headerFloor(c.Topology(), c.Config()), effectiveLeafLimit(c.Topology(), c.Config()); floor != 58 || limit != 25 {
		t.Errorf("header floor %d B and leaf limit %d, want 58 B and 25", floor, limit)
	}
	g := c.Group(key)
	if n := header.RuleCount(g.Enc.DLeafSection); n != effectiveLeafLimit(c.Topology(), c.Config()) || !g.Enc.DLeafDefault {
		t.Fatalf("the group's leaf section holds %d p-rules (default %v), want the limit and a default rule", n, g.Enc.DLeafDefault)
	}
	for _, m := range g.Members { // SenderStream refuses a header over MaxHeaderBytes
		if _, err := c.SenderStream(key, m.Host); err != nil {
			t.Fatalf("sender %d: %v", m.Host, err)
		}
	}
}

func TestComputeEncodingFigure3(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2 // the figure's scenario allows two leaf p-rules
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), figure3Receivers())
	if err != nil {
		t.Fatal(err)
	}
	// Pods 0, 2, 3 have receivers.
	var tree Tree
	if tree.Read(topo, receiving(figure3Receivers())); !slices.Equal(tree.pods, []topology.PodID{0, 2, 3}) {
		t.Fatalf("pods = %v", tree.pods)
	}
	// Leaf ports: L0 -> hosts 0,1; L5 -> port 0; L6 -> ports 0,1; L7 -> port 7.
	if got := enc.LeafPorts[0].String(); got != "11000000" {
		t.Fatalf("L0 ports = %s", got)
	}
	if got := enc.LeafPorts[5].String(); got != "10000000" {
		t.Fatalf("L5 ports = %s", got)
	}
	if got := enc.LeafPorts[7].String(); got != "00000001" {
		t.Fatalf("L7 ports = %s", got)
	}
	// The members give each leaf the same ports.
	for leaf, ports := range enc.LeafPorts {
		if got, _ := tree.Leaf(leaf); !got.Equal(ports) {
			t.Fatalf("L%d ports from the members = %s, want %s", leaf, got, ports)
		}
	}
	// Pod leaves: pod 0 -> leaf 0 (index 0), pod 2 -> leaf 5 (index 1),
	// pod 3 -> both leaves.
	if got, _ := tree.Pod(0); got.String() != "10" {
		t.Fatalf("pod 0 leaves = %s", got)
	}
	if got, _ := tree.Pod(3); got.String() != "11" {
		t.Fatalf("pod 3 leaves = %s", got)
	}
	// R=0, no s-rule capacity: L0 and L6 share a p-rule (identical
	// bitmaps); L5 gets one; L7 overflows to the default.
	if n := header.RuleCount(enc.DLeafSection); n != 2 {
		t.Fatalf("leaf p-rules = %d, want 2", n)
	}
	if !enc.DLeafDefault {
		t.Fatal("expected leaf default rule")
	}
	if enc.Exact() {
		t.Fatal("Exact() should be false with a default rule")
	}
}

func TestComputeEncodingWithSRules(t *testing.T) {
	topo := paperTopo()
	cap := CapacityFunc{
		Leaf: func(topology.LeafID) bool { return true },
		Pod:  func(topology.PodID) bool { return true },
	}
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2
	enc, err := ComputeEncoding(topo, cfg, cap, figure3Receivers())
	if err != nil {
		t.Fatal(err)
	}
	// With capacity, L7 takes an s-rule instead of the default (D5).
	if enc.DLeafDefault {
		t.Fatal("default rule used despite s-rule capacity")
	}
	if !slices.Contains(enc.LeafSRules, 7) {
		t.Fatalf("expected s-rule on L7, got %v", enc.LeafSRules)
	}
	if !enc.Exact() || !enc.UsesSRules() {
		t.Fatal("Exact/UsesSRules flags wrong")
	}
}

func TestComputeEncodingR2SharesAll(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(2)
	cfg.LeafRuleLimit = 2 // the figure's 2-rule budget forces sharing
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), figure3Receivers())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 3a, R=2: two leaf p-rules, no s-rules, no default.
	if n := header.RuleCount(enc.DLeafSection); n != 2 || enc.DLeafDefault || len(enc.LeafSRules) != 0 {
		t.Fatalf("R=2: rules=%d default=%v srules=%v", n, enc.DLeafDefault, enc.LeafSRules)
	}
	if enc.Redundancy() == 0 {
		t.Fatal("R=2 sharing should record redundancy")
	}
}

func TestComputeEncodingEmpty(t *testing.T) {
	enc, err := ComputeEncoding(paperTopo(), testConfig(0), NoCapacity(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !enc.Exact() || enc.DLeafSection != nil || len(enc.LeafPorts) != 0 {
		t.Fatal("empty receiver set should produce empty encoding")
	}
}

func TestSenderHeaderFigure3(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), figure3Receivers())
	if err != nil {
		t.Fatal(err)
	}
	// Sender Ha = host 0 (L0, pod 0).
	h, err := SenderHeader(topo, cfg, enc.Encoding, receiving(figure3Receivers()), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.ULeaf == nil || !h.ULeaf.Multipath {
		t.Fatal("u-leaf missing or not multipathed")
	}
	// Ha's u-leaf down must deliver Hb (port 1) only.
	if h.ULeaf.Down.String() != "01000000" {
		t.Fatalf("u-leaf down = %s", h.ULeaf.Down)
	}
	if h.USpine == nil || !h.USpine.Multipath {
		t.Fatal("u-spine missing or not multipathed")
	}
	// Pod 0 has no other member leaves.
	if !h.USpine.Down.IsEmpty() {
		t.Fatalf("u-spine down = %s, want empty", h.USpine.Down)
	}
	// Core: pods 2 and 3, not the sender's pod 0.
	if h.Core == nil || h.Core.String() != "0011" {
		t.Fatalf("core = %v", h.Core)
	}
	// Encoded size must respect the budget and round-trip.
	l := header.LayoutFor(topo)
	wire, err := header.Encode(l, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > cfg.MaxHeaderBytes {
		t.Fatalf("header %d bytes exceeds budget", len(wire))
	}
}

func TestSenderHeaderSameRackOnly(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	// All receivers under leaf 0.
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), []topology.HostID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := SenderHeader(topo, cfg, enc.Encoding, receiving([]topology.HostID{1, 2, 3}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.USpine != nil || h.Core != nil {
		t.Fatal("single-rack group should not carry upstream spine/core sections")
	}
	if h.ULeaf == nil || h.ULeaf.Multipath {
		t.Fatal("single-rack u-leaf should not multipath")
	}
	if h.ULeaf.Down.PopCount() != 3 {
		t.Fatalf("u-leaf down = %s", h.ULeaf.Down)
	}
	// d-leaf rules that exclusively name the sender's leaf are elided.
	if len(h.DLeaf) != 0 {
		t.Fatalf("d-leaf rules = %v, want none", h.DLeaf)
	}
}

func TestSenderHeaderSenderOnlyHost(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	// Receivers all in pod 3; sender in pod 0 is not a receiver.
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), []topology.HostID{48, 56})
	if err != nil {
		t.Fatal(err)
	}
	h, err := SenderHeader(topo, cfg, enc.Encoding, receiving([]topology.HostID{48, 56}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.ULeaf == nil || !h.ULeaf.Down.IsEmpty() {
		t.Fatal("sender-only host should have empty u-leaf down")
	}
	if h.Core == nil || h.Core.String() != "0001" {
		t.Fatalf("core = %v", h.Core)
	}
}

func TestSenderHeaderNoReceivers(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := SenderHeader(topo, cfg, enc.Encoding, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.ULeaf != nil || h.USpine != nil || h.Core != nil {
		t.Fatal("no receivers should produce an empty header")
	}
}

func TestControllerLifecycle(t *testing.T) {
	topo := paperTopo()
	c, err := New(topo, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 5, Group: 9}
	members := map[topology.HostID]Role{
		0: RoleBoth, 1: RoleReceiver, 40: RoleBoth, 63: RoleSender,
	}
	g, err := c.CreateGroup(key, members)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Receivers()); got != 3 {
		t.Fatalf("receivers = %d, want 3", got)
	}
	if got := len(g.Senders()); got != 3 {
		t.Fatalf("senders = %d, want 3", got)
	}
	if _, err := c.CreateGroup(key, members); err == nil {
		t.Fatal("duplicate create accepted")
	}
	// Sender-only host can get a header; receiver-only cannot.
	if _, err := c.HeaderFor(key, 63); err != nil {
		t.Fatalf("sender header: %v", err)
	}
	if _, err := c.HeaderFor(key, 1); err == nil {
		t.Fatal("receiver-only host got a sender header")
	}
	// Join a receiver; tree changes.
	if err := c.Join(key, 48, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	if len(c.Group(key).Receivers()) != 4 {
		t.Fatal("join did not add receiver")
	}
	// Re-join with same role is a no-op.
	before := c.Stats().Total()
	if err := c.Join(key, 48, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Total() != before {
		t.Fatal("no-op join charged updates")
	}
	// Leave.
	if err := c.Leave(key, 48, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(key, 48, RoleReceiver); err == nil {
		t.Fatal("double leave accepted")
	}
	if err := c.RemoveGroup(key); err != nil {
		t.Fatal(err)
	}
	if c.NumGroups() != 0 {
		t.Fatal("group not removed")
	}
	if err := c.RemoveGroup(key); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestSenderOnlyJoinTouchesOneHypervisor(t *testing.T) {
	topo := paperTopo()
	c, _ := New(topo, testConfig(0))
	key := GroupKey{Tenant: 1, Group: 1}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if err := c.Join(key, 8, RoleSender); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hypervisor[8] != 1 || len(st.Hypervisor) != 1 {
		t.Fatalf("sender-only join updates = %v, want only host 8", st.Hypervisor)
	}
	if len(st.Leaf) != 0 || len(st.Spine) != 0 || st.Core != 0 {
		t.Fatal("sender-only join touched network switches")
	}
}

func TestReceiverJoinUpdatesSenders(t *testing.T) {
	topo := paperTopo()
	c, _ := New(topo, testConfig(0))
	key := GroupKey{Tenant: 1, Group: 2}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleSender, 8: RoleSender, 40: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if err := c.Join(key, 56, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// Both senders' hypervisors refresh headers; the joining host's
	// hypervisor gets its delivery rule.
	if st.Hypervisor[0] != 1 || st.Hypervisor[8] != 1 || st.Hypervisor[56] != 1 {
		t.Fatalf("hypervisor updates = %v", st.Hypervisor)
	}
	if st.Core != 0 {
		t.Fatal("core switches must never receive updates")
	}
}

func TestSRuleAccounting(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 0 // force everything to s-rules/default
	cfg.SpineRuleLimit = 0
	cfg.SRuleCapacity = 2
	c, _ := New(topo, cfg)
	key := GroupKey{Tenant: 1, Group: 3}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver, 56: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	g := c.Group(key)
	if len(g.Enc.LeafSRules) == 0 {
		t.Fatal("expected leaf s-rules with zero p-rule budget")
	}
	for _, l := range g.Enc.LeafSRules {
		if c.occ.LeafCount(l) != 1 {
			t.Fatalf("leaf %d occupancy = %d", l, c.occ.LeafCount(l))
		}
	}
	if err := c.RemoveGroup(key); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < topo.NumLeaves(); l++ {
		if c.occ.LeafCount(topology.LeafID(l)) != 0 {
			t.Fatalf("leaf %d occupancy leaked", l)
		}
	}
}

func TestSRuleCapacityExhaustionFallsToDefault(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 0
	cfg.SpineRuleLimit = 0
	cfg.SRuleCapacity = 1
	c, _ := New(topo, cfg)
	// Two groups on the same leaves; the second must overflow to
	// default p-rules once capacity is consumed.
	m := map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver}
	if _, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 1}, m); err != nil {
		t.Fatal(err)
	}
	g2, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Enc.DLeafDefault {
		t.Fatal("second group should use a default leaf rule")
	}
}

func TestFailureHandling(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	c, _ := New(topo, cfg)
	key := GroupKey{Tenant: 2, Group: 1}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver, 56: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	// Fail the spine the sender's flow actually transits (the
	// controller predicts the ECMP plane).
	outer := dataplane.SenderOuter(topo, 0, dataplane.GroupAddr{VNI: 2, Group: 1})
	plane, _ := dataplane.PredictPath(topo, outer, 0)
	failed := topo.SpineAt(0, plane)
	impacted := c.FailSpine(failed)
	if impacted != 1 {
		t.Fatalf("impacted = %d, want 1", impacted)
	}
	h, err := c.HeaderFor(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ULeaf.Multipath {
		t.Fatal("multipath should be disabled under failure")
	}
	// The chosen plane must avoid the failed spine.
	if h.ULeaf.Up.Test(plane) || h.ULeaf.Up.IsEmpty() {
		t.Fatalf("u-leaf up = %s (failed plane %d)", h.ULeaf.Up, plane)
	}
	if h.USpine.Up.IsEmpty() {
		t.Fatal("u-spine explicit core port missing")
	}
	// Repair restores multipathing.
	c.RepairSpine(failed)
	h2, err := c.HeaderFor(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.ULeaf.Multipath {
		t.Fatal("multipath not restored after repair")
	}
}

func TestFailureNoPath(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	c, _ := New(topo, cfg)
	key := GroupKey{Tenant: 2, Group: 2}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	// Fail both spines of the sender's pod: no upstream path remains.
	c.FailSpine(0)
	c.FailSpine(1)
	if _, err := c.HeaderFor(key, 0); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestCoreFailureImpactsOnlyTransitingGroups(t *testing.T) {
	topo := paperTopo()
	c, _ := New(topo, testConfig(0))
	// Group 1 spans pods; group 2 is single-pod.
	if _, err := c.CreateGroup(GroupKey{Tenant: 3, Group: 1}, map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateGroup(GroupKey{Tenant: 3, Group: 2}, map[topology.HostID]Role{0: RoleBoth, 8: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	// The controller predicts the exact core the cross-pod group's
	// sender flow transits; failing that core impacts exactly one
	// group (the single-pod group never touches cores).
	outer := dataplane.SenderOuter(topo, 0, dataplane.GroupAddr{VNI: 3, Group: 1})
	_, usedCore := dataplane.PredictPath(topo, outer, 0)
	if impacted := c.FailCore(usedCore); impacted != 1 {
		t.Fatalf("used-core failure impacted %d groups, want 1", impacted)
	}
	c.RepairCore(usedCore)
	// Failing a core the flow does not transit impacts nothing.
	other := topology.CoreID((int(usedCore) + 1) % topo.NumCores())
	if impacted := c.FailCore(other); impacted != 0 {
		t.Fatalf("unused-core failure impacted %d groups, want 0", impacted)
	}
	c.RepairCore(other)
}

func TestQuickSenderHeaderFitsBudgetAndParses(t *testing.T) {
	topo := topology.MustNew(topology.Config{Pods: 6, SpinesPerPod: 2, LeavesPerPod: 6, HostsPerLeaf: 8, CoresPerPlane: 2})
	cfg := Config{
		MaxHeaderBytes: 325, SpineRuleLimit: 2, LeafRuleLimit: 30,
		KMaxSpine: 2, KMaxLeaf: 2, R: 6, SRuleCapacity: 8,
	}
	l := header.LayoutFor(topo)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		seen := make(map[topology.HostID]bool)
		var receivers []topology.HostID
		for len(receivers) < n {
			h := topology.HostID(rng.Intn(topo.NumHosts()))
			if !seen[h] {
				seen[h] = true
				receivers = append(receivers, h)
			}
		}
		enc, err := ComputeEncoding(topo, cfg, NoCapacity(), receivers)
		if err != nil {
			return false
		}
		sender := receivers[rng.Intn(len(receivers))]
		h, err := SenderHeader(topo, cfg, enc.Encoding, receiving(receivers), sender, nil)
		if err != nil {
			return false
		}
		wire, err := header.Encode(l, h)
		if err != nil || len(wire) > cfg.MaxHeaderBytes {
			return false
		}
		_, _, err = header.Decode(l, wire)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRuleGeneration60Members(b *testing.B) {
	// §5.1.3: the controller computes a group's p- and s-rules in
	// ~0.2 ms (paper, Python); this measures the same operation.
	topo := topology.MustNew(topology.FacebookFabric())
	cfg := PaperConfig(6)
	rng := rand.New(rand.NewSource(21))
	receivers := make([]topology.HostID, 60)
	for i := range receivers {
		receivers[i] = topology.HostID(rng.Intn(topo.NumHosts()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeEncoding(topo, cfg, NoCapacity(), receivers); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFailureRepairCycleRestoresState walks the full §3.3 repair
// path: fail a spine and a core, recompute mid-failure (membership
// churn while degraded), repair, recompute again — and check the
// sender encoding and the per-switch s-rule charge both return
// exactly to their pre-failure state.
func TestFailureRepairCycleRestoresState(t *testing.T) {
	topo := paperTopo()
	c, err := New(topo, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 5, Group: 9}
	members := map[topology.HostID]Role{0: RoleBoth}
	for _, h := range figure3Receivers()[1:] {
		members[h] = RoleReceiver
	}
	if _, err := c.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	lay := header.LayoutFor(topo)
	snapshot := func() ([]byte, []int, []int) {
		hdr, err := c.HeaderFor(key, 0)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := header.Encode(lay, hdr)
		if err != nil {
			t.Fatal(err)
		}
		leaves := make([]int, topo.NumLeaves())
		for l := range leaves {
			leaves[l] = c.occ.LeafCount(topology.LeafID(l))
		}
		spines := make([]int, topo.NumSpines())
		for s := range spines {
			spines[s] = c.occ.SpineCount(topology.SpineID(s))
		}
		return wire, leaves, spines
	}
	preWire, preLeaf, preSpine := snapshot()

	c.FailSpine(0)
	c.FailCore(0)
	mid, err := c.HeaderFor(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mid.ULeaf.Multipath {
		t.Fatal("failure-mode header still multipaths")
	}

	// Recompute while degraded: churn one receiver so the encoder
	// re-runs under the failure view.
	if err := c.Leave(key, 63, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(key, 63, RoleReceiver); err != nil {
		t.Fatal(err)
	}

	c.RepairSpine(0)
	c.RepairCore(0)
	// Recompute after repair: churn again back to the same membership.
	if err := c.Leave(key, 63, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(key, 63, RoleReceiver); err != nil {
		t.Fatal(err)
	}

	postWire, postLeaf, postSpine := snapshot()
	if !bytes.Equal(preWire, postWire) {
		t.Fatalf("post-repair encoding differs:\npre  %x\npost %x", preWire, postWire)
	}
	for l := range preLeaf {
		if preLeaf[l] != postLeaf[l] {
			t.Fatalf("leaf %d s-rule count %d -> %d across fail/repair", l, preLeaf[l], postLeaf[l])
		}
	}
	for s := range preSpine {
		if preSpine[s] != postSpine[s] {
			t.Fatalf("spine %d s-rule count %d -> %d across fail/repair", s, preSpine[s], postSpine[s])
		}
	}
}
