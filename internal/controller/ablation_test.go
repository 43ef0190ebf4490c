package controller

import (
	"math/rand"
	"testing"
	"testing/quick"

	"elmo/internal/topology"
)

// TestAblationFigure3Narrative reproduces the §3.1 size-reduction
// story on the running example: per-switch rules (paper: 161 bits) >
// logical-topology encoding (83 bits, "a reduction of 48%") > shared
// bitmaps (62 bits, "a decrease of 25%"). Exact constants depend on
// bit-accounting details the paper doesn't fully specify; the test
// pins the magnitudes and the two documented reduction ratios to
// loose windows around the paper's.
func TestAblationFigure3Narrative(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(2)
	cfg.LeafRuleLimit = 2
	sizes, err := Ablation(topo, cfg, figure3Receivers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(sizes.D1Bits > sizes.D2Bits && sizes.D2Bits > sizes.D3Bits) {
		t.Fatalf("stages not monotone: %+v", sizes)
	}
	// Paper: 161 -> 83 (-48%) -> 62 (-25%).
	d2Cut := 1 - float64(sizes.D2Bits)/float64(sizes.D1Bits)
	d3Cut := 1 - float64(sizes.D3Bits)/float64(sizes.D2Bits)
	if d2Cut < 0.25 || d2Cut > 0.75 {
		t.Errorf("D1->D2 reduction %.0f%%, paper reports 48%% (%+v)", 100*d2Cut, sizes)
	}
	if d3Cut < 0.05 || d3Cut > 0.50 {
		t.Errorf("D2->D3 reduction %.0f%%, paper reports 25%% (%+v)", 100*d3Cut, sizes)
	}
	// Magnitudes in the paper's ballpark (tens to ~200 bits).
	if sizes.D1Bits < 80 || sizes.D1Bits > 300 {
		t.Errorf("D1 = %d bits, paper's example is 161", sizes.D1Bits)
	}
	if sizes.D3Bits < 30 || sizes.D3Bits > 120 {
		t.Errorf("D3 = %d bits, paper's example is 62", sizes.D3Bits)
	}
}

func TestQuickAblationMonotone(t *testing.T) {
	topo := topology.MustNew(topology.Config{Pods: 6, SpinesPerPod: 2, LeavesPerPod: 6, HostsPerLeaf: 8, CoresPerPlane: 2})
	cfg := Config{
		MaxHeaderBytes: 512, SpineRuleLimit: 6, LeafRuleLimit: 40,
		KMaxSpine: 3, KMaxLeaf: 3, R: 6, SRuleCapacity: 0,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 3
		seen := make(map[topology.HostID]bool)
		var receivers []topology.HostID
		for len(receivers) < n {
			h := topology.HostID(rng.Intn(topo.NumHosts()))
			if !seen[h] {
				seen[h] = true
				receivers = append(receivers, h)
			}
		}
		sizes, err := Ablation(topo, cfg, receivers, receivers[rng.Intn(len(receivers))])
		if err != nil {
			return false
		}
		// D1 >= D2 >= D3 always; sharing can only help.
		return sizes.D1Bits >= sizes.D2Bits && sizes.D2Bits >= sizes.D3Bits && sizes.D3Bits > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNoPopBytes(t *testing.T) {
	// 10 links, 100-byte inner, 60-byte header: no-pop traffic is
	// exactly links x (outer+inner+header).
	got := NoPopBytes(10, 100, 60)
	if got != 10*(50+100+60) {
		t.Fatalf("NoPopBytes = %d", got)
	}
}
