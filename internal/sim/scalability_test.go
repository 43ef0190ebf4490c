package sim

import (
	"reflect"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/topology"
)

// smallScalability is a fast, scaled-down §5.1 experiment: 4 pods of
// 8 leaves × 8 hosts (256 hosts), 60 tenants, 800 groups.
func smallScalability(p, r, srules int) ScalabilityConfig {
	return ScalabilityConfig{
		Topology: topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 8, CoresPerPlane: 2},
		Placement: placement.Config{
			Tenants: 60, VMsPerHost: 20, MinVMs: 5, MaxVMs: 28, MeanVMs: 16, P: p, Seed: 11,
		},
		Groups: groupgen.Config{TotalGroups: 800, MinSize: 5, Dist: groupgen.WVE, Seed: 13},
		Controller: controller.Config{
			MaxHeaderBytes: 325, SpineRuleLimit: 2, LeafRuleLimit: 30,
			KMaxSpine: 2, KMaxLeaf: 2, R: r, SRuleCapacity: srules,
		},
		PacketSizes:         []int{64, 1500},
		BaselineSampleEvery: 7,
		Seed:                17,
	}
}

func TestScalabilityRunBasics(t *testing.T) {
	res, err := RunScalability(smallScalability(4, 0, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGroups != 800 {
		t.Fatalf("groups = %d", res.TotalGroups)
	}
	if res.DeliveryFailures != 0 {
		t.Fatalf("delivery failures = %d", res.DeliveryFailures)
	}
	if got := res.GroupsPRulesOnly + res.GroupsWithSRules + res.GroupsWithDefault; got != 800 {
		t.Fatalf("coverage categories sum to %d", got)
	}
	if res.CoveredFraction() < 0.9 {
		t.Fatalf("covered fraction %.3f unexpectedly low with ample capacity", res.CoveredFraction())
	}
	// Traffic overhead: positive, smaller for large packets, and far
	// below the unicast baseline (the paper's headline relationship).
	o64 := res.TrafficOverhead[64]
	o1500 := res.TrafficOverhead[1500]
	if o64 <= 0 || o1500 <= 0 {
		t.Fatalf("overheads: 64B=%.3f 1500B=%.3f", o64, o1500)
	}
	if o1500 >= o64 {
		t.Fatalf("1500B overhead %.3f should be below 64B overhead %.3f", o1500, o64)
	}
	if res.UnicastOverhead[1500] <= o1500 {
		t.Fatalf("unicast overhead %.3f should exceed Elmo %.3f", res.UnicastOverhead[1500], o1500)
	}
	if res.OverlayOverhead[1500] <= o1500 || res.OverlayOverhead[1500] >= res.UnicastOverhead[1500] {
		t.Fatalf("overlay overhead %.3f should sit between Elmo %.3f and unicast %.3f",
			res.OverlayOverhead[1500], o1500, res.UnicastOverhead[1500])
	}
	// Headers fit the budget.
	if res.HeaderBytes.Max() > 325 {
		t.Fatalf("max header %f exceeds budget", res.HeaderBytes.Max())
	}
	if res.HeaderBytes.Mean() <= 0 {
		t.Fatal("header sizes not recorded")
	}
}

func TestScalabilityRaisingRImprovesCoverage(t *testing.T) {
	// Figure 4/5 (left): more redundancy -> more groups covered by
	// p-rules alone. Use zero s-rule capacity so the effect is pure.
	prev := -1
	for _, r := range []int{0, 6, 12} {
		res, err := RunScalability(smallScalability(1, r, 0))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.GroupsPRulesOnly < prev-20 {
			t.Fatalf("R=%d covered %d, noticeably fewer than %d at lower R", r, res.GroupsPRulesOnly, prev)
		}
		prev = res.GroupsPRulesOnly
		if res.DeliveryFailures != 0 {
			t.Fatalf("R=%d: delivery failures", r)
		}
	}
}

func TestScalabilityRaisingRReducesSRules(t *testing.T) {
	// Figure 4/5 (center): s-rule usage drops as R grows.
	r0, err := RunScalability(smallScalability(4, 0, 2000))
	if err != nil {
		t.Fatal(err)
	}
	r12, err := RunScalability(smallScalability(4, 12, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if r12.LeafSRules.Mean() > r0.LeafSRules.Mean() {
		t.Fatalf("R=12 leaf s-rules %.1f should not exceed R=0's %.1f",
			r12.LeafSRules.Mean(), r0.LeafSRules.Mean())
	}
}

func TestScalabilityElmoBeatsLiOnState(t *testing.T) {
	// Figure 4/5 (center): Elmo's s-rule usage is far below Li et
	// al.'s per-switch group-table entries.
	res, err := RunScalability(smallScalability(1, 6, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.LeafSRules.Mean() >= res.LiLeafEntries.Mean() {
		t.Fatalf("Elmo leaf s-rules %.1f should be below Li's %.1f",
			res.LeafSRules.Mean(), res.LiLeafEntries.Mean())
	}
}

func TestScalabilityClusteredPlacementCoversMore(t *testing.T) {
	// P=12-style clustered placement encodes more groups with p-rules
	// than dispersed P=1 (Figure 4 vs Figure 5).
	clustered, err := RunScalability(smallScalability(8, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	dispersed, err := RunScalability(smallScalability(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if clustered.GroupsPRulesOnly < dispersed.GroupsPRulesOnly {
		t.Fatalf("clustered covered %d < dispersed %d", clustered.GroupsPRulesOnly, dispersed.GroupsPRulesOnly)
	}
}

func TestScalabilityErrorsAndOptions(t *testing.T) {
	// Invalid topology surfaces as an error.
	bad := smallScalability(4, 0, 10)
	bad.Topology.Pods = 0
	if _, err := RunScalability(bad); err == nil {
		t.Fatal("invalid topology accepted")
	}
	// Invalid placement too.
	bad2 := smallScalability(4, 0, 10)
	bad2.Placement.Tenants = 0
	if _, err := RunScalability(bad2); err == nil {
		t.Fatal("invalid placement accepted")
	}
	// Baselines disabled: overhead maps stay zero-valued.
	cfg := smallScalability(4, 0, 100)
	cfg.Groups.TotalGroups = 100
	cfg.BaselineSampleEvery = 0
	res, err := RunScalability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnicastOverhead[1500] != 0 || res.OverlayOverhead[1500] != 0 {
		t.Fatal("baselines measured despite being disabled")
	}
	if res.TrafficOverhead[1500] <= 0 {
		t.Fatal("elmo traffic not measured")
	}
	// Leaf-layer coverage is at least the all-layer coverage.
	if res.LeafPRulesOnly < res.GroupsPRulesOnly {
		t.Fatalf("leaf-only %d < all-layer %d", res.LeafPRulesOnly, res.GroupsPRulesOnly)
	}
}

// TestScalabilityParallelMatchesSerial pins the determinism guarantee
// of the sharded encoding pipeline at the harness level: the full
// experiment result — coverage counts, occupancy distributions,
// traffic overheads, header stats — is identical for 1 and 4 workers.
func TestScalabilityParallelMatchesSerial(t *testing.T) {
	serialCfg := smallScalability(1, 1, 8) // tight capacity: forces commit-point recomputes
	serialCfg.Workers = 1
	parallelCfg := serialCfg
	parallelCfg.Workers = 4

	serial, err := RunScalability(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunScalability(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero the configs (they differ only in Workers) and compare the
	// rest of the result wholesale.
	serial.Config = ScalabilityConfig{}
	parallel.Config = ScalabilityConfig{}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel run diverged from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}
