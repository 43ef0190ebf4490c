package controller

import (
	"math/rand"
	"runtime"
	"testing"

	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/raceflag"
	"elmo/internal/topology"
)

// benchReceiverSets places 200 tenants on the benchmark's 2,048-host
// fabric and returns the host lists of n WVE-sized groups: the shapes the
// benchmark's controller.encode_allocs kernel encodes.
func benchReceiverSets(t *testing.T, n int) (*topology.Topology, [][]topology.HostID) {
	t.Helper()
	topo := topology.MustNew(topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4})
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 200, VMsPerHost: 20, MinVMs: 10, MaxVMs: 400, MeanVMs: 60, P: 4, Seed: 2019,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: n, MinSize: 5, Dist: groupgen.WVE, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]topology.HostID, len(gs))
	for i := range gs {
		sets[i] = gs[i].Hosts
	}
	return topo, sets
}

// TestEncodeAllocationBudget pins what one encoding allocates with a warm
// scratch: the Encoding, its two tree maps and one word slab for every
// tree bitmap, then per layer one rule slice, one switch slab, one word
// slab for every bitmap the layer keeps, and any default rule or s-rule
// list. A bitmap or rule list allocated on its own shows here.
func TestEncodeAllocationBudget(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	const budget = 9 // 13 when each layer kept its rules as structs (a rule slice, a switch slab and a word slab); 55 when every tree and rule bitmap was its own allocation
	topo, sets := benchReceiverSets(t, 512)
	cfg := PaperConfig(0)
	capFn := NewOccupancy(topo, cfg.SRuleCapacity).CapacityFunc()
	var s EncodeScratch
	i := 0
	step := func() {
		if _, err := ComputeEncodingInto(topo, cfg, capFn, sets[i%len(sets)], &s); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range sets { // warm the scratch on every shape first
		step()
	}
	allocs := testing.AllocsPerRun(4*len(sets), step)
	if allocs > budget {
		t.Fatalf("warm ComputeEncodingInto allocated %.2f times per encoding, budget %d", allocs, budget)
	}
	t.Logf("warm ComputeEncodingInto: %.2f allocations per encoding", allocs)
}

// TestLiveHeapPerGroup pins the live heap a controller holds per group:
// 5,000 seeded WVE groups on the benchmark's fabric, each member a
// receiver and a quarter of them (and the first) senders too, installed
// in one batch at R=0. The bound is the measured bytes per group plus
// under 2 % slack; it may only tighten. A group's live heap is its
// member list, its tree maps and bitmaps, its two downstream sections
// and its s-rule lists; it was 3,495 B when each layer kept its
// p-rules as structs beside the tree.
func TestLiveHeapPerGroup(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	const boundBytes = 2650 // per group; 2,600 measured
	topo, sets := benchReceiverSets(t, 5000)
	rng := rand.New(rand.NewSource(41))
	specs := make([]BatchSpec, len(sets))
	for i, hosts := range sets {
		members := make(map[topology.HostID]Role, len(hosts))
		for j, h := range hosts {
			members[h] = RoleReceiver
			if j == 0 || rng.Intn(4) == 0 {
				members[h] = RoleBoth
			}
		}
		specs[i] = BatchSpec{Key: GroupKey{Tenant: 1, Group: uint32(i + 1)}, Members: members}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c, err := New(topo, PaperConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InstallBatch(specs, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	perGroup := float64(heap()-before) / float64(len(specs))
	runtime.KeepAlive(c)
	runtime.KeepAlive(specs)
	if perGroup > boundBytes {
		t.Fatalf("live heap %.0f B per group, bound %d", perGroup, boundBytes)
	}
	t.Logf("live heap: %.0f B per group", perGroup)
}
