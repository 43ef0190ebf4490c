package placement

import (
	"testing"

	"elmo/internal/topology"
)

// testTopo is large enough that even P=1 placement can disperse the
// biggest test tenant across distinct racks: 32 leaves, 128 hosts.
func testTopo() *topology.Topology {
	return topology.MustNew(topology.Config{
		Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 4, CoresPerPlane: 2,
	})
}

func smallConfig(p int) Config {
	return Config{
		Tenants:    20,
		VMsPerHost: 20,
		MinVMs:     5,
		MaxVMs:     30,
		MeanVMs:    12,
		P:          p,
		Seed:       3,
	}
}

func TestPlaceBasicInvariants(t *testing.T) {
	topo := testTopo()
	for _, p := range []int{1, 4, PAll} {
		d, err := Place(topo, smallConfig(p))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if len(d.Tenants) != 20 {
			t.Fatalf("P=%d: tenants = %d", p, len(d.Tenants))
		}
		load := make([]int, topo.NumHosts())
		for _, tn := range d.Tenants {
			if len(tn.VMs) < 5 || len(tn.VMs) > 30 {
				t.Fatalf("P=%d: tenant %d has %d VMs, outside [5,30]", p, tn.ID, len(tn.VMs))
			}
			hostSeen := make(map[topology.HostID]bool)
			leafCount := make(map[topology.LeafID]int)
			for _, vm := range tn.VMs {
				if vm.Tenant != tn.ID {
					t.Fatalf("VM tenant mismatch")
				}
				if hostSeen[vm.Host] {
					t.Fatalf("P=%d: tenant %d has two VMs on host %d", p, tn.ID, vm.Host)
				}
				hostSeen[vm.Host] = true
				load[vm.Host]++
				leafCount[topo.HostLeaf(vm.Host)]++
			}
			if p != PAll {
				for leaf, n := range leafCount {
					if n > p {
						t.Fatalf("P=%d: tenant %d has %d VMs under leaf %d", p, tn.ID, n, leaf)
					}
				}
			}
		}
		for h, n := range load {
			if n > 20 {
				t.Fatalf("P=%d: host %d has %d VMs", p, h, n)
			}
			if n != d.HostLoad[h] {
				t.Fatalf("P=%d: HostLoad[%d] = %d, counted %d", p, h, d.HostLoad[h], n)
			}
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	topo := testTopo()
	d1, err := Place(topo, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Place(topo, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if d1.TotalVMs() != d2.TotalVMs() {
		t.Fatal("placement not deterministic")
	}
	for i := range d1.Tenants {
		for j := range d1.Tenants[i].VMs {
			if d1.Tenants[i].VMs[j].Host != d2.Tenants[i].VMs[j].Host {
				t.Fatal("VM placement not deterministic")
			}
		}
	}
}

func TestPlaceP1Disperses(t *testing.T) {
	topo := testTopo()
	d, err := Place(topo, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range d.Tenants {
		leaves := LeavesOf(topo, hostsOf(tn))
		if len(leaves) != len(tn.VMs) {
			t.Fatalf("P=1: tenant %d spans %d leaves for %d VMs", tn.ID, len(leaves), len(tn.VMs))
		}
	}
}

func hostsOf(t Tenant) []topology.HostID {
	hs := make([]topology.HostID, len(t.VMs))
	for i, vm := range t.VMs {
		hs[i] = vm.Host
	}
	return hs
}

func TestPlaceRejectsBadConfig(t *testing.T) {
	topo := topology.MustNew(topology.PaperExample())
	bads := []Config{
		{},
		{Tenants: 1, VMsPerHost: 0, MinVMs: 1, MaxVMs: 2, MeanVMs: 1},
		{Tenants: 1, VMsPerHost: 1, MinVMs: 0, MaxVMs: 2, MeanVMs: 1},
		{Tenants: 1, VMsPerHost: 1, MinVMs: 3, MaxVMs: 2, MeanVMs: 1},
		{Tenants: 1, VMsPerHost: 1, MinVMs: 1, MaxVMs: 2, MeanVMs: 0},
	}
	for i, cfg := range bads {
		if _, err := Place(topo, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestPlaceFabricFull(t *testing.T) {
	// 1 pod, 1 leaf, 2 hosts, 1 VM per host: a 3-VM tenant cannot fit
	// with the distinct-host rule.
	topo := topology.MustNew(topology.Config{Pods: 1, SpinesPerPod: 1, LeavesPerPod: 1, HostsPerLeaf: 2, CoresPerPlane: 1})
	cfg := Config{Tenants: 1, VMsPerHost: 1, MinVMs: 3, MaxVMs: 3, MeanVMs: 3, P: PAll, Seed: 1}
	if _, err := Place(topo, cfg); err == nil {
		t.Fatal("expected fabric-full error")
	}
}

func TestTenantSizeDistribution(t *testing.T) {
	topo := topology.MustNew(topology.FacebookFabric())
	// The evaluation's placement at P=12, with 300 of its 3,000 tenants
	// to keep the test fast; shape is what matters.
	cfg := Config{Tenants: 300, VMsPerHost: 20, MinVMs: 10, MaxVMs: 5000, MeanVMs: 178.77, P: 12, Seed: 1}
	d, err := Place(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum, min, max int
	min = 1 << 30
	for _, tn := range d.Tenants {
		n := tn.Size()
		sum += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	mean := float64(sum) / float64(len(d.Tenants))
	if min < 10 || max > 5000 {
		t.Fatalf("sizes outside [10,5000]: min=%d max=%d", min, max)
	}
	if mean < 100 || mean > 280 {
		t.Fatalf("mean tenant size = %.1f, expected near the paper's 178.77", mean)
	}
}

func BenchmarkPlacePaperScaleP12(b *testing.B) {
	topo := topology.MustNew(topology.FacebookFabric())
	cfg := Config{Tenants: 500, VMsPerHost: 20, MinVMs: 10, MaxVMs: 5000, MeanVMs: 178.77, P: 12, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Place(topo, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTenantsConcentrateInFewPods pins the paper-critical property of
// the placement strategy: a tenant occupies only as many pods as its
// size requires (pods are exhausted before new ones are selected), so
// multicast groups' pod spans stay small enough for the 2-rule spine
// header budget.
func TestTenantsConcentrateInFewPods(t *testing.T) {
	topo := topology.MustNew(topology.FacebookFabric()) // 48 leaves/pod
	cfg := Config{
		Tenants: 50, VMsPerHost: 20, MinVMs: 10, MaxVMs: 400, MeanVMs: 150, P: 12, Seed: 9,
	}
	d, err := Place(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	podCap := topo.Config().LeavesPerPod * cfg.P // tenant VMs per pod
	for _, tn := range d.Tenants {
		pods := make(map[topology.PodID]bool)
		for _, vm := range tn.VMs {
			pods[topo.HostPod(vm.Host)] = true
		}
		// Minimum pods the tenant needs, plus slack for pods already
		// crowded by other tenants.
		need := (tn.Size() + podCap - 1) / podCap
		if len(pods) > need+2 {
			t.Fatalf("tenant %d (%d VMs) spans %d pods, need only %d",
				tn.ID, tn.Size(), len(pods), need)
		}
	}
}
