package fabric

import (
	"testing"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/raceflag"
	"elmo/internal/topology"
)

func TestInstallEncodingDirect(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 0 // force s-rules
	cfg.SpineRuleLimit = 0
	f := New(topo, 4)
	receivers := []topology.HostID{0, 1, 40}
	enc, err := controller.ComputeEncoding(topo, cfg, controller.CapacityFunc{
		Leaf: func(topology.LeafID) bool { return true },
		Pod:  func(topology.PodID) bool { return true },
	}, receivers)
	if err != nil {
		t.Fatal(err)
	}
	addr := dataplane.GroupAddr{VNI: 1, Group: 1}
	if err := f.InstallEncodingAt(0, addr, enc, receivers); err != nil {
		t.Fatal(err)
	}
	// Sender header installed directly.
	hdr, err := controller.SenderHeader(topo, cfg, enc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := installHeader(f, 0, 0, addr, hdr); err != nil {
		t.Fatal(err)
	}
	d, err := f.Send(0, addr, []byte("direct"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 2 {
		t.Fatalf("delivery = %s", d)
	}
	// Uninstall clears everything.
	if err := f.Hypervisors[0].RemoveSenderFlowAt(0, addr); err != nil {
		t.Fatal(err)
	}
	if err := f.UninstallEncodingAt(0, addr, enc, receivers); err != nil {
		t.Fatal(err)
	}
	for _, sw := range f.Leaves {
		if sw.SRuleCount() != 0 {
			t.Fatal("leaf s-rules leaked")
		}
	}
	for _, sw := range f.Spines {
		if sw.SRuleCount() != 0 {
			t.Fatal("spine s-rules leaked")
		}
	}
	if _, err := f.Send(0, addr, []byte("x")); err == nil {
		t.Fatal("send succeeded after flow removal")
	}
}

func TestInstallEncodingCapacityError(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 0
	cfg.SpineRuleLimit = 0
	// Fabric tables hold only 1 entry; install two encodings that both
	// need a leaf s-rule on leaf 0.
	f := New(topo, 1)
	fullCap := controller.CapacityFunc{
		Leaf: func(topology.LeafID) bool { return true },
		Pod:  func(topology.PodID) bool { return true },
	}
	receivers := []topology.HostID{0, 1}
	enc, err := controller.ComputeEncoding(topo, cfg, fullCap, receivers)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallEncodingAt(0, dataplane.GroupAddr{VNI: 1, Group: 1}, enc, receivers); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallEncodingAt(0, dataplane.GroupAddr{VNI: 1, Group: 2}, enc, receivers); err == nil {
		t.Fatal("second install should exceed fabric table capacity")
	}
}

func TestInstallGroupUnknownKey(t *testing.T) {
	topo := paperTopo()
	ctrl, f := setup(t, topo, testConfig(0))
	if _, err := f.InstallGroupAt(0, ctrl, controller.GroupKey{Tenant: 9, Group: 9}); err == nil {
		t.Fatal("unknown group installed")
	}
	if err := f.UninstallGroupAt(0, ctrl, controller.GroupKey{Tenant: 9, Group: 9}); err == nil {
		t.Fatal("unknown group uninstalled")
	}
}

func TestSendWithoutFlowFails(t *testing.T) {
	topo := paperTopo()
	_, f := setup(t, topo, testConfig(0))
	if _, err := f.Send(0, dataplane.GroupAddr{VNI: 5, Group: 5}, []byte("x")); err == nil {
		t.Fatal("send without installed flow accepted")
	}
}

// TestInstallWalkAllocationBudget bounds what one install + uninstall of
// a 32-member, 8-sender group allocates. The walk's own share is the
// sender scratch (five bitmaps); the rest is what the devices keep (one
// flow and one stream per sender). The members are walked in place and
// the stream buffer stays on the stack: a host slice per role, a member
// copy or an escaping buffer breaks the budget, and so does building a
// header.Header per sender again — a dozen allocations each.
func TestInstallWalkAllocationBudget(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	const budget = 21 // 5 scratch + 8 × (flow + stream); 25 with role slices, a member copy and a heap buffer
	topo := paperTopo()
	ctrl, f := setup(t, topo, testConfig(0))
	key := controller.GroupKey{Tenant: 3, Group: 1}
	members := make(map[topology.HostID]controller.Role)
	for h := 0; h < topo.NumHosts(); h += 2 {
		members[topology.HostID(h)] = controller.RoleReceiver
		if h%8 == 0 {
			members[topology.HostID(h)] = controller.RoleBoth
		}
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	if n := len(ctrl.Group(key).Senders()); len(members) != 32 || n != 8 {
		t.Fatalf("group has %d members, %d senders", len(members), n)
	}
	cycle := func() {
		if noPath, err := f.InstallGroupAt(0, ctrl, key); err != nil || len(noPath) != 0 {
			t.Fatalf("install: %v, no path %v", err, noPath)
		}
		if err := f.UninstallGroupAt(0, ctrl, key); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > budget {
		t.Fatalf("install + uninstall allocated %.0f times, budget %d", allocs, budget)
	} else {
		t.Logf("install + uninstall: %.0f allocations", allocs)
	}
}
