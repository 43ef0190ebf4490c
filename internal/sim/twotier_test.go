package sim

import (
	"testing"

	"elmo/internal/controller"
	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/topology"
)

// TestTwoTierLeafSpine reproduces the §5.1.1 side note: the same
// experiment on a CONGA-style two-tier leaf-spine topology behaves
// qualitatively like the three-tier runs. In a two-tier fabric every
// group is single-pod, so headers carry no core or d-spine sections,
// and coverage is governed purely by the leaf-layer budget.
func TestTwoTierLeafSpine(t *testing.T) {
	cfg := ScalabilityConfig{
		Topology: topology.Config{Pods: 1, SpinesPerPod: 4, LeavesPerPod: 24, HostsPerLeaf: 12, CoresPerPlane: 1}, // 288 hosts
		Placement: placement.Config{
			Tenants: 60, VMsPerHost: 20, MinVMs: 5, MaxVMs: 24, MeanVMs: 14, P: 1, Seed: 21,
		},
		Groups: groupgen.Config{TotalGroups: 600, MinSize: 5, Dist: groupgen.WVE, Seed: 23},
		Controller: controller.Config{
			MaxHeaderBytes: 325, SpineRuleLimit: 2, LeafRuleLimit: 30,
			KMaxSpine: 2, KMaxLeaf: 2, R: 6, SRuleCapacity: 100,
		},
		PacketSizes:         []int{1500},
		BaselineSampleEvery: 13,
		Seed:                25,
	}
	res, err := RunScalability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryFailures != 0 {
		t.Fatalf("delivery failures = %d", res.DeliveryFailures)
	}
	if res.CoveredFraction() < 0.95 {
		t.Fatalf("two-tier coverage %.3f; leaf budget should cover almost everything", res.CoveredFraction())
	}
	if res.TrafficOverhead[1500] <= 0 || res.TrafficOverhead[1500] > 0.4 {
		t.Fatalf("two-tier overhead = %.3f", res.TrafficOverhead[1500])
	}
	if res.UnicastOverhead[1500] <= res.TrafficOverhead[1500] {
		t.Fatal("unicast should cost more than Elmo on two-tier too")
	}
	// No spine s-rules should ever be needed: single-pod groups put
	// their pod-internal fan-out in the u-spine rule and d-leaf rules.
	if res.SpineSRules.Max() != 0 {
		t.Fatalf("two-tier spine s-rules max = %f", res.SpineSRules.Max())
	}
}
