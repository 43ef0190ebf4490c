package groupgen

import (
	"testing"

	"elmo/internal/placement"
	"elmo/internal/topology"
)

func testDeployment(t *testing.T) *placement.Deployment {
	t.Helper()
	topo := topology.MustNew(topology.PaperExample())
	cfg := placement.Config{
		Tenants: 10, VMsPerHost: 20, MinVMs: 6, MaxVMs: 40, MeanVMs: 15, P: 4, Seed: 2,
	}
	d, err := placement.Place(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateInvariants(t *testing.T) {
	d := testDeployment(t)
	cfg := Config{TotalGroups: 200, MinSize: 5, Dist: WVE, Seed: 4}
	groups, err := Generate(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 200 {
		t.Fatalf("groups = %d, want 200", len(groups))
	}
	tenantHosts := make([]map[topology.HostID]bool, len(d.Tenants))
	for i, tn := range d.Tenants {
		tenantHosts[i] = make(map[topology.HostID]bool)
		for _, vm := range tn.VMs {
			tenantHosts[i][vm.Host] = true
		}
	}
	seenIDs := make(map[uint32]bool)
	for _, g := range groups {
		if seenIDs[g.ID] {
			t.Fatalf("duplicate group ID %d", g.ID)
		}
		seenIDs[g.ID] = true
		if g.Size() < 5 && g.Size() != len(d.Tenants[g.Tenant].VMs) {
			t.Fatalf("group %d size %d below MinSize", g.ID, g.Size())
		}
		prev := topology.HostID(-1)
		for _, h := range g.Hosts {
			if h <= prev {
				t.Fatalf("group %d hosts not strictly ascending: %v", g.ID, g.Hosts)
			}
			prev = h
			if !tenantHosts[g.Tenant][h] {
				t.Fatalf("group %d contains host %d not owned by tenant %d", g.ID, h, g.Tenant)
			}
		}
	}
}

func TestGroupsProportionalToTenantSize(t *testing.T) {
	d := testDeployment(t)
	groups, err := Generate(d, Config{TotalGroups: 500, MinSize: 5, Dist: WVE, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(d.Tenants))
	for _, g := range groups {
		counts[g.Tenant]++
	}
	total := d.TotalVMs()
	for i, tn := range d.Tenants {
		exact := 500 * float64(tn.Size()) / float64(total)
		if float64(counts[i]) < exact-1 || float64(counts[i]) > exact+1 {
			t.Fatalf("tenant %d: %d groups, expected ~%.1f", i, counts[i], exact)
		}
	}
}

func TestUniformDistribution(t *testing.T) {
	d := testDeployment(t)
	groups, err := Generate(d, Config{TotalGroups: 300, MinSize: 5, Dist: Uniform, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		max := d.Tenants[g.Tenant].Size()
		if g.Size() > max {
			t.Fatalf("group %d larger than tenant", g.ID)
		}
	}
}

func TestWVEShape(t *testing.T) {
	// Sample the WVE sampler directly through a large synthetic tenant
	// so clamping does not distort the distribution shape.
	topo := topology.MustNew(topology.FacebookFabric())
	cfg := placement.Config{Tenants: 2, VMsPerHost: 20, MinVMs: 1400, MaxVMs: 1400, MeanVMs: 1400, P: 12, Seed: 5}
	d, err := placement.Place(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := Generate(d, Config{TotalGroups: 20000, MinSize: 5, Dist: WVE, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(topo, groups)
	if s.MeanSize < 40 || s.MeanSize > 80 {
		t.Errorf("WVE mean size = %.1f, paper reports ~60", s.MeanSize)
	}
	if s.Below61 < 0.72 || s.Below61 > 0.88 {
		t.Errorf("WVE fraction below 61 = %.3f, paper reports ~0.80", s.Below61)
	}
	// §5.1.2 implies ~78% of groups below ~30 members at P=1.
	below31 := 0
	for i := range groups {
		if groups[i].Size() < 31 {
			below31++
		}
	}
	if frac := float64(below31) / float64(len(groups)); frac < 0.70 || frac > 0.85 {
		t.Errorf("WVE fraction below 31 = %.3f, want ~0.78", frac)
	}
	if s.Above700 < 0.002 || s.Above700 > 0.012 {
		t.Errorf("WVE fraction above 700 = %.4f, paper reports ~0.006", s.Above700)
	}
	if s.MinSize < 5 {
		t.Errorf("min group size = %d", s.MinSize)
	}
}

func TestGenerateErrors(t *testing.T) {
	d := testDeployment(t)
	if _, err := Generate(d, Config{TotalGroups: -1, MinSize: 5}); err == nil {
		t.Error("negative TotalGroups accepted")
	}
	if _, err := Generate(d, Config{TotalGroups: 1, MinSize: 0}); err == nil {
		t.Error("zero MinSize accepted")
	}
	empty := &placement.Deployment{Topo: d.Topo, Tenants: []placement.Tenant{}}
	if _, err := Generate(empty, Config{TotalGroups: 1, MinSize: 5}); err == nil {
		t.Error("empty deployment accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := testDeployment(t)
	cfg := Config{TotalGroups: 100, MinSize: 5, Dist: WVE, Seed: 13}
	g1, _ := Generate(d, cfg)
	g2, _ := Generate(d, cfg)
	if len(g1) != len(g2) {
		t.Fatal("not deterministic")
	}
	for i := range g1 {
		if g1[i].Size() != g2[i].Size() || g1[i].Tenant != g2[i].Tenant {
			t.Fatal("not deterministic")
		}
		for j := range g1[i].Hosts {
			if g1[i].Hosts[j] != g2[i].Hosts[j] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	topo := topology.MustNew(topology.PaperExample())
	s := Summarize(topo, nil)
	if s.Groups != 0 || s.MinSize != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func BenchmarkGenerate(b *testing.B) {
	topo := topology.MustNew(topology.FacebookFabric())
	cfg := placement.Config{Tenants: 100, VMsPerHost: 20, MinVMs: 10, MaxVMs: 5000, MeanVMs: 178.77, P: 12, Seed: 1}
	d, err := placement.Place(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := Config{TotalGroups: 5000, MinSize: 5, Dist: WVE, Seed: 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(d, gcfg); err != nil {
			b.Fatal(err)
		}
	}
}
