package controller

import (
	"slices"
	"testing"

	"elmo/internal/topology"
)

// TestCoverUpstreamMultiPlane drives the §3.3 greedy set cover into a
// configuration where no single spine plane reaches every receiver
// pod, so the sender's upstream rules must pin multiple planes.
func TestCoverUpstreamMultiPlane(t *testing.T) {
	topo := paperTopo() // 4 pods, 2 planes
	cfg := testConfig(0)
	// Receivers in pods 2 and 3; sender in pod 0.
	receivers := []topology.HostID{40, 56} // L5 (pod 2), L7 (pod 3)
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), receivers)
	if err != nil {
		t.Fatal(err)
	}
	failures := topology.NewFailureSet()
	// Pod 2 reachable only via plane 1 (spine 4 = pod2/plane0 dead);
	// pod 3 reachable only via plane 0 (spine 7 = pod3/plane1 dead).
	failures.FailSpine(4)
	failures.FailSpine(7)

	h, err := SenderHeader(topo, cfg, enc, 0, failures)
	if err != nil {
		t.Fatal(err)
	}
	if h.ULeaf.Multipath || h.USpine.Multipath {
		t.Fatal("multipath should be disabled")
	}
	if h.ULeaf.Up.PopCount() != 2 {
		t.Fatalf("u-leaf up = %s, want both planes", h.ULeaf.Up)
	}
	if h.USpine.Up.IsEmpty() {
		t.Fatal("u-spine core ports missing")
	}
}

// TestCoverUpstreamCoreOnlyFailure: when one plane loses all its
// cores, cross-pod groups must pin the surviving plane.
func TestCoverUpstreamCoreOnlyFailure(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), []topology.HostID{40})
	if err != nil {
		t.Fatal(err)
	}
	failures := topology.NewFailureSet()
	failures.FailCore(0) // plane 0
	failures.FailCore(1) // plane 0 (cores 0,1 are plane 0)
	h, err := SenderHeader(topo, cfg, enc, 0, failures)
	if err != nil {
		t.Fatal(err)
	}
	if h.ULeaf.Multipath {
		t.Fatal("multipath should be off")
	}
	if !h.ULeaf.Up.Test(1) || h.ULeaf.Up.Test(0) {
		t.Fatalf("u-leaf up = %s, want plane 1 only", h.ULeaf.Up)
	}
}

// TestCoverUpstreamSinglePodUnderFailure: a single-pod group needs any
// healthy spine of its own pod, no cores.
func TestCoverUpstreamSinglePodUnderFailure(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	// Receivers under leaves 0 and 1 (pod 0).
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), []topology.HostID{1, 9})
	if err != nil {
		t.Fatal(err)
	}
	failures := topology.NewFailureSet()
	failures.FailSpine(0) // pod 0 plane 0
	h, err := SenderHeader(topo, cfg, enc, 0, failures)
	if err != nil {
		t.Fatal(err)
	}
	if h.ULeaf.Multipath {
		t.Fatal("multipath should be off")
	}
	if !h.ULeaf.Up.Test(1) || h.ULeaf.Up.PopCount() != 1 {
		t.Fatalf("u-leaf up = %s", h.ULeaf.Up)
	}
	if h.USpine == nil || !h.USpine.Up.IsEmpty() {
		t.Fatal("single-pod group must not pin core ports")
	}
}

// TestRecomputeRollbackOnLegacyFailure: when a membership change makes
// the encoding impossible (legacy table full), the controller must
// roll back to the previous encoding and keep occupancy consistent.
func TestRecomputeRollbackOnLegacyFailure(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LegacyLeaves = []topology.LeafID{7}
	cfg.SRuleCapacity = 1
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 holds the only slot on legacy leaf 7.
	if _, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]Role{0: RoleBoth, 57: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	// Group 2 lives elsewhere.
	if _, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 2},
		map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	occBefore := c.occ.LeafCount(7)
	// Joining a host under the legacy leaf must fail (table full)...
	if err := c.Join(GroupKey{Tenant: 1, Group: 2}, 63, RoleReceiver); err == nil {
		t.Fatal("join through full legacy table accepted")
	}
	// ...without corrupting occupancy or the existing group.
	if c.occ.LeafCount(7) != occBefore {
		t.Fatalf("occupancy changed: %d -> %d", occBefore, c.occ.LeafCount(7))
	}
	g1 := c.Group(GroupKey{Tenant: 1, Group: 1})
	if !slices.Contains(g1.Enc.LeafSRules, 7) {
		t.Fatal("group 1 lost its legacy s-rule")
	}
	// Group 2 remains usable for its previous members.
	if _, err := c.HeaderFor(GroupKey{Tenant: 1, Group: 2}, 0); err != nil {
		t.Fatalf("group 2 unusable after rollback: %v", err)
	}
}

// TestGroupKeysOrdering covers the facade's enumeration helper.
func TestGroupKeysOrdering(t *testing.T) {
	topo := paperTopo()
	c, _ := New(topo, testConfig(0))
	for _, k := range []GroupKey{{2, 1}, {1, 2}, {1, 1}} {
		if _, err := c.CreateGroup(k, map[topology.HostID]Role{0: RoleBoth}); err != nil {
			t.Fatal(err)
		}
	}
	keys := c.GroupKeys()
	want := []GroupKey{{1, 1}, {1, 2}, {2, 1}}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

// TestJoinRollbackRevertsMembership: a failed join must leave the
// membership set untouched, not just the encoding.
func TestJoinRollbackRevertsMembership(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LegacyLeaves = []topology.LeafID{7}
	cfg.SRuleCapacity = 1
	c, _ := New(topo, cfg)
	if _, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]Role{0: RoleBoth, 57: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	g2 := GroupKey{Tenant: 1, Group: 2}
	if _, err := c.CreateGroup(g2, map[topology.HostID]Role{0: RoleBoth}); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(g2, 63, RoleReceiver); err == nil {
		t.Fatal("expected join failure")
	}
	if c.Group(g2).RoleOf(63) != 0 {
		t.Fatal("failed join left the member in the group")
	}
}
