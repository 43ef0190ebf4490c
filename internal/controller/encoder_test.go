package controller

import (
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
	const budget = 13 // 14 with s-rule maps; 55 on these sets when every tree and rule bitmap was its own allocation
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
