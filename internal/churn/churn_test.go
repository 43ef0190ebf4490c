package churn

import (
	"math/rand"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/topology"
)

// churnFixture builds a controller with placed tenants and groups.
func churnFixture(t *testing.T, nGroups int) (*controller.Controller, *placement.Deployment, []groupgen.Group) {
	t.Helper()
	return churnFixtureWith(t, nGroups, controller.Config{
		MaxHeaderBytes: 325, SpineRuleLimit: 2, LeafRuleLimit: 30,
		KMaxSpine: 2, KMaxLeaf: 2, R: 0, SRuleCapacity: 500,
	})
}

// churnFixtureWith is churnFixture under the given controller config.
func churnFixtureWith(t *testing.T, nGroups int, cfg controller.Config) (*controller.Controller, *placement.Deployment, []groupgen.Group) {
	t.Helper()
	topo := topology.MustNew(topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 8, CoresPerPlane: 2})
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 40, VMsPerHost: 20, MinVMs: 6, MaxVMs: 28, MeanVMs: 14, P: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: nGroups, MinSize: 5, Dist: groupgen.WVE, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Setup(ctrl, dep, groups, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	return ctrl, dep, groups
}

func TestChurnRun(t *testing.T) {
	ctrl, dep, groups := churnFixture(t, 150)
	res, err := Run(ctrl, dep, groups, Config{Events: 600, EventsPerSecond: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsApplied+res.EventsSkipped != 600 {
		t.Fatalf("events: applied %d skipped %d", res.EventsApplied, res.EventsSkipped)
	}
	if res.EventsApplied == 0 {
		t.Fatal("no events applied")
	}
	// Table 2 structure: hypervisors take the most updates; the core
	// takes none under Elmo but plenty under Li et al.
	if res.CoreRate != 0 {
		t.Fatalf("Elmo core rate = %f, must be 0", res.CoreRate)
	}
	if res.Hypervisor.Mean() <= res.Leaf.Mean() {
		t.Fatalf("hypervisor rate %.3f should exceed leaf rate %.3f",
			res.Hypervisor.Mean(), res.Leaf.Mean())
	}
	if res.LiCore.Mean() <= 0 {
		t.Fatal("Li et al. core updates missing")
	}
	// Elmo's network-switch update load is below Li et al.'s.
	if res.Leaf.Mean() >= res.LiLeaf.Mean() {
		t.Fatalf("Elmo leaf %.3f should be below Li %.3f", res.Leaf.Mean(), res.LiLeaf.Mean())
	}
	if res.Spine.Mean() >= res.LiSpine.Mean() {
		t.Fatalf("Elmo spine %.3f should be below Li %.3f", res.Spine.Mean(), res.LiSpine.Mean())
	}
	out := res.Table2().String()
	if len(out) == 0 {
		t.Fatal("empty table")
	}
}

func TestChurnRejectsBadConfig(t *testing.T) {
	ctrl, dep, groups := churnFixture(t, 20)
	if _, err := Run(ctrl, dep, groups, Config{Events: 0, EventsPerSecond: 1}); err == nil {
		t.Fatal("zero events accepted")
	}
	if _, err := Run(ctrl, dep, groups, Config{Events: 1, EventsPerSecond: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestChurnMembershipStaysConsistent(t *testing.T) {
	ctrl, dep, groups := churnFixture(t, 80)
	if _, err := Run(ctrl, dep, groups, Config{Events: 400, EventsPerSecond: 100, Seed: 10}); err != nil {
		t.Fatal(err)
	}
	// Every group still exists, has at least one member, and all
	// members belong to the owning tenant.
	for gi := range groups {
		g := &groups[gi]
		st := ctrl.Group(controller.GroupKey{Tenant: uint32(g.Tenant), Group: g.ID})
		if st == nil {
			t.Fatalf("group %d lost", g.ID)
		}
		if len(st.Members) == 0 {
			t.Fatalf("group %d empty", g.ID)
		}
		tenantHosts := make(map[topology.HostID]bool)
		for _, vm := range dep.Tenants[g.Tenant].VMs {
			tenantHosts[vm.Host] = true
		}
		for _, m := range st.Members {
			if !tenantHosts[m.Host] {
				t.Fatalf("group %d member %d not in tenant", g.ID, m.Host)
			}
		}
	}
}

func TestRunFailures(t *testing.T) {
	ctrl, _, _ := churnFixture(t, 120)
	res := RunFailures(ctrl, 42)
	if res.SpineImpactedFrac < 0 || res.SpineImpactedFrac > 1 {
		t.Fatalf("spine impact = %f", res.SpineImpactedFrac)
	}
	// Core failures impact cross-pod groups, typically more than a
	// single pod's spine failure (paper: 12.3% vs 25.8%).
	if res.CoreImpactedFrac <= 0 {
		t.Fatal("core failure impacted no groups")
	}
	if res.SpineHypervisorUpdates < 0 || res.CoreHypervisorUpdates <= 0 {
		t.Fatalf("hypervisor updates: spine=%d core=%d",
			res.SpineHypervisorUpdates, res.CoreHypervisorUpdates)
	}
	// Failure handling must leave the failure set clean (repaired).
	if !ctrl.Failures().Empty() {
		t.Fatal("failures not repaired after experiment")
	}
}

func TestRoleForCoversAllRoles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[controller.Role]bool)
	for i := 0; i < 100; i++ {
		seen[roleFor(rng)] = true
	}
	if !seen[controller.RoleSender] || !seen[controller.RoleReceiver] || !seen[controller.RoleBoth] {
		t.Fatalf("roles seen: %v", seen)
	}
}

func TestFenwick(t *testing.T) {
	weights := []int{3, 0, 5, 1, 2, 7, 4}
	f := newFenwick(weights)
	if got := f.total(); got != 22 {
		t.Fatalf("total = %d, want 22", got)
	}
	for i, w := range weights {
		if got := f.weight(i); got != w {
			t.Fatalf("weight(%d) = %d, want %d", i, got, w)
		}
	}
	// find maps every point in [0, total) to the index owning that
	// slice of the cumulative distribution.
	wantIdx := func(x int) int {
		cum := 0
		for i, w := range weights {
			cum += w
			if x < cum {
				return i
			}
		}
		t.Fatalf("x=%d out of range", x)
		return -1
	}
	for x := 0; x < 22; x++ {
		if got := f.find(x); got != wantIdx(x) {
			t.Fatalf("find(%d) = %d, want %d", x, got, wantIdx(x))
		}
	}
	// Live updates shift the distribution.
	f.add(1, 6)
	f.add(5, -7)
	if f.weight(1) != 6 || f.weight(5) != 0 || f.total() != 21 {
		t.Fatalf("after updates: w1=%d w5=%d total=%d", f.weight(1), f.weight(5), f.total())
	}
	weights[1], weights[5] = 6, 0
	for x := 0; x < 21; x++ {
		if got := f.find(x); got != wantIdx(x) {
			t.Fatalf("after update find(%d) = %d, want %d", x, got, wantIdx(x))
		}
	}
}

// TestChurnWeightsTrackSize is the regression test for the
// stale-weight bug: after a long churn run, every group's sampling
// weight must equal its actual membership size.
func TestChurnWeightsTrackSize(t *testing.T) {
	ctrl, dep, groups := churnFixture(t, 100)
	res, err := Run(ctrl, dep, groups, Config{Events: 2000, EventsPerSecond: 100, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightDrift != 0 {
		t.Fatalf("sampling weights drifted %d from membership sizes", res.WeightDrift)
	}
	// WeightDrift compared the weights against the controller's own
	// member lists; every group must still be there.
	for gi := range groups {
		g := &groups[gi]
		st := ctrl.Group(controller.GroupKey{Tenant: uint32(g.Tenant), Group: g.ID})
		if st == nil {
			t.Fatalf("group %d lost", g.ID)
		}
	}
}

// TestTable2AndFailuresPinned pins the exact Table 2, failure rows and
// final controller fingerprint of two small seeded runs: the fixture's
// p-rule-only shape, and a tight one (few rules, 40 table entries per
// switch, R=6) where leaf and spine s-rules come and go under capacity
// contention. The values were recorded before churn generated against
// the controller's own members and before an encoding's s-rules became
// switch IDs, so they prove both changes preserve every count. The
// fingerprints hash state format 2; in format 1, which also stored the
// derived tree, bitmaps and redundancies, they were 887248649d7224b9…
// and f34ef5710840ad29….
func TestTable2AndFailuresPinned(t *testing.T) {
	failures := FailureResult{SpineImpactedFrac: 0.6, CoreImpactedFrac: 0.68,
		SpineHypervisorUpdates: 1020, CoreHypervisorUpdates: 1184}
	cases := []struct {
		name        string
		cfg         controller.Config
		table2      string
		fingerprint string
	}{
		{
			name: "fixture",
			cfg: controller.Config{MaxHeaderBytes: 325, SpineRuleLimit: 2, LeafRuleLimit: 30,
				KMaxSpine: 2, KMaxLeaf: 2, R: 0, SRuleCapacity: 500},
			table2: "Table 2: avg (max) switch updates per second\n" +
				"switch      Elmo avg  Elmo max  Li et al. avg  Li et al. max\n" +
				"----------  --------  --------  -------------  -------------\n" +
				"hypervisor  2.655     11.167    NE             NE           \n" +
				"leaf        0         0         29.339         37.167       \n" +
				"spine       9.167     11.500    31.521         39.167       \n" +
				"core        0         0         18.833         41.833       \n",
			fingerprint: "c8572f5663579360a4b70ff5f555ba8b7f760b426fd0a231914efa9f6d738fe6",
		},
		{
			name: "tight",
			cfg: controller.Config{MaxHeaderBytes: 325, SpineRuleLimit: 1, LeafRuleLimit: 3,
				KMaxSpine: 2, KMaxLeaf: 2, R: 6, SRuleCapacity: 40},
			table2: "Table 2: avg (max) switch updates per second\n" +
				"switch      Elmo avg  Elmo max  Li et al. avg  Li et al. max\n" +
				"----------  --------  --------  -------------  -------------\n" +
				"hypervisor  1.985     8.833     NE             NE           \n" +
				"leaf        2.021     4.500     29.339         37.167       \n" +
				"spine       9.958     11.500    31.521         39.167       \n" +
				"core        0         0         18.833         41.833       \n",
			fingerprint: "03a98fc0e333ce8bd1db743404a071e8661a51cc75a492d2b7fe8b3309dd1e5c",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, dep, groups := churnFixtureWith(t, 150, tc.cfg)
			res, err := Run(ctrl, dep, groups, Config{Events: 600, EventsPerSecond: 100, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if res.EventsApplied != 484 || res.EventsSkipped != 116 || res.WeightDrift != 0 {
				t.Errorf("events applied %d skipped %d drift %d, want 484 116 0",
					res.EventsApplied, res.EventsSkipped, res.WeightDrift)
			}
			if got := res.Table2().String(); got != tc.table2 {
				t.Errorf("Table 2:\n%s\nwant:\n%s", got, tc.table2)
			}
			if got := ctrl.Fingerprint(); got != tc.fingerprint {
				t.Errorf("controller fingerprint %s, want %s", got, tc.fingerprint)
			}
			if got := *RunFailures(ctrl, 42); got != failures {
				t.Errorf("failure rows %+v, want %+v", got, failures)
			}
		})
	}
}
