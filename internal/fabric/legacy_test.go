package fabric

import (
	"slices"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/topology"
)

// legacySetup marks leaf 7 and pod 1 as legacy in both planes.
func legacySetup(t *testing.T) (*controller.Controller, *Fabric) {
	t.Helper()
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LegacyLeaves = []topology.LeafID{7}
	cfg.LegacyPods = []topology.PodID{1}
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := New(topo, cfg.SRuleCapacity)
	f.SetFailures(ctrl.Failures())
	f.SetLegacyLeaf(7)
	f.SetLegacyPod(1)
	return ctrl, f
}

// TestLegacyInterop reproduces the paper's incremental-deployment test
// (§7): Elmo packets traverse legacy switches through their group
// tables while modern switches keep using p-rules.
func TestLegacyInterop(t *testing.T) {
	ctrl, f := legacySetup(t)
	// Members: pod 0 (modern), pod 1 (legacy spines: hosts 16..31),
	// leaf 7 (legacy: hosts 56..63).
	hosts := []topology.HostID{0, 1, 17, 25, 57, 63}
	key := controller.GroupKey{Tenant: 4, Group: 1}
	members := make(map[topology.HostID]controller.Role, len(hosts))
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	noPath, err := f.InstallGroupAt(0, ctrl, key)
	if err != nil {
		t.Fatal(err)
	}
	// The four members behind legacy switches cannot source-route.
	if len(noPath) != 4 {
		t.Fatalf("noPath = %v, want the 4 legacy-side senders", noPath)
	}

	g := ctrl.Group(key)
	// The legacy leaf and pod must have been forced onto s-rules.
	if !slices.Contains(g.Enc.LeafSRules, 7) {
		t.Fatalf("legacy leaf 7 has no s-rule: %v", g.Enc.LeafSRules)
	}
	if !slices.Contains(g.Enc.SpineSRules, 1) {
		t.Fatalf("legacy pod 1 has no spine s-rule: %v", g.Enc.SpineSRules)
	}

	// A sender on a modern leaf reaches everyone, including members
	// behind legacy switches.
	d, err := f.Send(0, dataplane.GroupAddr{VNI: 4, Group: 1}, []byte("interop"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != len(hosts)-1 || d.Lost != 0 || d.Duplicates != 0 {
		t.Fatalf("delivery = %s", d)
	}
	// Legacy switches must have used their group tables.
	legacyHits := f.Leaves[7].Stats().SRuleHits +
		f.Spines[2].Stats().SRuleHits + f.Spines[3].Stats().SRuleHits
	if legacyHits == 0 {
		t.Fatal("no group-table hits on legacy switches")
	}
}

// TestLegacySenderFallsBackToUnicast: senders behind legacy switches
// cannot source-route; InstallGroup reports them and the hypervisor
// uses unicast.
func TestLegacySenderFallsBack(t *testing.T) {
	ctrl, f := legacySetup(t)
	hosts := []topology.HostID{0, 57, 17}
	members := make(map[topology.HostID]controller.Role)
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	key := controller.GroupKey{Tenant: 4, Group: 2}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	noPath, err := f.InstallGroupAt(0, ctrl, key)
	if err != nil {
		t.Fatal(err)
	}
	// Hosts 57 (legacy leaf 7) and 17 (legacy pod 1, cross-pod group)
	// cannot source-route.
	if len(noPath) != 2 {
		t.Fatalf("noPath = %v, want hosts 17 and 57", noPath)
	}
	// They still deliver via the unicast fallback.
	d, err := f.SendUnicast(57, hosts, []byte("fallback"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 2 {
		t.Fatalf("unicast fallback: %s", d)
	}
	// The modern sender still source-routes to everyone.
	d, err = f.Send(0, dataplane.GroupAddr{VNI: 4, Group: 2}, []byte("fwd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 2 {
		t.Fatalf("modern sender: %s", d)
	}
}

// TestLegacyIntraPodSenderOK: a sender in a legacy pod whose group is
// rack-local does not need the pod's spines and can still source-route.
func TestLegacyIntraRackSenderOK(t *testing.T) {
	ctrl, f := legacySetup(t)
	// Hosts 16..23 are all under leaf 2 (pod 1).
	hosts := []topology.HostID{16, 18, 20}
	key := controller.GroupKey{Tenant: 4, Group: 3}
	installGroup(t, ctrl, f, key, hosts)
	d, err := f.Send(16, dataplane.GroupAddr{VNI: 4, Group: 3}, []byte("rack"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 2 {
		t.Fatalf("delivery = %s", d)
	}
}

// TestLegacyTableFull: when a legacy switch has no group-table space,
// group creation fails loudly instead of silently blackholing.
func TestLegacyTableFull(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LegacyLeaves = []topology.LeafID{7}
	cfg.SRuleCapacity = 1
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1 := map[topology.HostID]controller.Role{0: controller.RoleBoth, 57: controller.RoleReceiver}
	if _, err := ctrl.CreateGroup(controller.GroupKey{Tenant: 5, Group: 1}, m1); err != nil {
		t.Fatal(err)
	}
	// Second group through the same legacy leaf: table is full.
	if _, err := ctrl.CreateGroup(controller.GroupKey{Tenant: 5, Group: 2}, m1); err == nil {
		t.Fatal("expected legacy-table-full error")
	}
}
