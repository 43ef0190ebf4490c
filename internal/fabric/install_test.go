package fabric

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/raceflag"
	"elmo/internal/topology"
)

func TestInstallEncodingDirect(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 0 // force s-rules
	cfg.SpineRuleLimit = 0
	f := New(topo, 4)
	receivers := receiving(0, 1, 40)
	enc, err := controller.ComputeEncoding(topo, cfg, controller.CapacityFunc{
		Leaf: func(topology.LeafID) bool { return true },
		Pod:  func(topology.PodID) bool { return true },
	}, []topology.HostID{0, 1, 40})
	if err != nil {
		t.Fatal(err)
	}
	addr := dataplane.GroupAddr{VNI: 1, Group: 1}
	if err := f.InstallEncodingAt(0, addr, enc.Encoding, receivers); err != nil {
		t.Fatal(err)
	}
	// Sender header installed directly.
	hdr, err := controller.SenderHeader(topo, cfg, enc.Encoding, receivers, 0, nil)
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
	if err := f.UninstallEncodingAt(0, addr, enc.Encoding, receivers); err != nil {
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
	receivers := receiving(0, 1)
	enc, err := controller.ComputeEncoding(topo, cfg, fullCap, []topology.HostID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallEncodingAt(0, dataplane.GroupAddr{VNI: 1, Group: 1}, enc.Encoding, receivers); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallEncodingAt(0, dataplane.GroupAddr{VNI: 1, Group: 2}, enc.Encoding, receivers); err == nil {
		t.Fatal("second install should exceed fabric table capacity")
	}
}

// receiving lists ascending hosts as the members of a group in which
// each only receives.
func receiving(hosts ...topology.HostID) []controller.Member {
	ms := make([]controller.Member, len(hosts))
	for i, h := range hosts {
		ms[i] = controller.Member{Host: h, Role: controller.RoleReceiver}
	}
	return ms
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
// a 32-member, 8-sender group allocates: with the walk's working memory
// (the group's tree, read once from its members, and the sender scratch)
// pooled, only what the devices keep (one flow and one stream per
// sender). The members are walked in place and the stream buffer stays
// on the stack: a host slice per role, a member copy, a tree or scratch
// made per walk or per sender, or an escaping buffer breaks the budget,
// and so does building a header.Header per sender again — a dozen
// allocations each.
func TestInstallWalkAllocationBudget(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	const budget = 16 // 8 × (flow + stream); 27 with the tree (6) and the sender scratch (5) made per walk, 21 with the scratch made per walk and the tree in the encoding
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

// benchGroups is 5,000 seeded WVE groups on the benchmark's fabric, each
// member a receiver and a quarter of them (and the first) senders too,
// as one batch: the controller package's bench-shaped groups.
func benchGroups(t testing.TB) (*topology.Topology, []controller.BatchSpec) {
	t.Helper()
	topo := topology.MustNew(topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4})
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 200, VMsPerHost: 20, MinVMs: 10, MaxVMs: 400, MeanVMs: 60, P: 4, Seed: 2019,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: 5000, MinSize: 5, Dist: groupgen.WVE, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	specs := make([]controller.BatchSpec, len(gs))
	for i := range gs {
		members := make(map[topology.HostID]controller.Role, len(gs[i].Hosts))
		for j, h := range gs[i].Hosts {
			members[h] = controller.RoleReceiver
			if j == 0 || rng.Intn(4) == 0 {
				members[h] = controller.RoleBoth
			}
		}
		specs[i] = controller.BatchSpec{Key: controller.GroupKey{Tenant: 1, Group: uint32(i + 1)}, Members: members}
	}
	return topo, specs
}

// TestSRuleEntriesAreMemberTrees: the install walk reads each s-rule
// entry from the group's members. After InstallGroupAt of the 5,000
// bench-shaped groups, at the paper's Fmax and at a scarce one, every
// leaf and spine holds exactly the entries written from bitmaps built
// straight from each group's receivers: a leaf's receiver ports, and
// for every spine of a pod the pod's receiver leaves.
func TestSRuleEntriesAreMemberTrees(t *testing.T) {
	topo, specs := benchGroups(t)
	for _, fmax := range []int{10000, 6} {
		cfg := controller.PaperConfig(0)
		cfg.SRuleCapacity = fmax
		ctrl, err := controller.New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.InstallBatch(specs, controller.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
		walked, direct := New(topo, fmax), New(topo, fmax)
		leafEntries, podEntries := 0, 0
		for _, key := range ctrl.GroupKeys() {
			if _, err := walked.InstallGroupAt(0, ctrl, key); err != nil {
				t.Fatal(err)
			}
			g, a := ctrl.Group(key), addr(key)
			for _, leaf := range g.Enc.LeafSRules {
				ports := bitmap.New(topo.LeafDownWidth())
				for _, m := range g.Members {
					if m.Role.CanReceive() && topo.HostLeaf(m.Host) == leaf {
						ports.Set(topo.HostPort(m.Host))
					}
				}
				if err := direct.Leaves[leaf].InstallSRuleAt(0, a, ports); err != nil {
					t.Fatal(err)
				}
				leafEntries++
			}
			for _, pod := range g.Enc.SpineSRules {
				leaves := bitmap.New(topo.SpineDownWidth())
				for _, m := range g.Members {
					if m.Role.CanReceive() && topo.HostPod(m.Host) == pod {
						leaves.Set(topo.LeafIndexInPod(topo.HostLeaf(m.Host)))
					}
				}
				first, end := controller.SRuleSpines(topo, pod)
				for s := first; s < end; s++ {
					if err := direct.Spines[s].InstallSRuleAt(0, a, leaves); err != nil {
						t.Fatal(err)
					}
				}
				podEntries++
			}
		}
		if leafEntries == 0 || podEntries == 0 {
			t.Fatalf("Fmax %d: %d leaf and %d pod s-rules, want some of each", fmax, leafEntries, podEntries)
		}
		t.Logf("Fmax %d: %d leaf and %d pod s-rules", fmax, leafEntries, podEntries)
		switches := func(f *Fabric) []*dataplane.NetworkSwitch { return append(slices.Clone(f.Leaves), f.Spines...) }
		for i, sw := range switches(walked) {
			var got, want bytes.Buffer
			sw.WriteStateDigest(&got)
			switches(direct)[i].WriteStateDigest(&want)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("Fmax %d: switch %d (leaves, then spines) holds other s-rule entries than its groups' receivers give", fmax, i)
			}
		}
	}
}
