package livefabric

import (
	"strings"
	"testing"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// TestTracePathOverLiveFabric records one multicast send on the
// concurrent fabric and checks the flight recorder captured the full
// multi-hop path — every switch traversed with its rule kind — while
// the switch goroutines were recording in parallel.
func TestTracePathOverLiveFabric(t *testing.T) {
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.Config{
		MaxHeaderBytes: 325, SpineRuleLimit: 2, LeafRuleLimit: 30,
		KMaxSpine: 2, KMaxLeaf: 2, SRuleCapacity: 16,
	}
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := fabric.New(topo, cfg.SRuleCapacity)
	base.SetFailures(ctrl.Failures())
	lf := New(base)

	rec := trace.New(trace.Config{})
	rec.Enable(trace.CatHop, trace.CatHost, trace.CatFabric)
	base.SetTracer(rec)

	key := controller.GroupKey{Tenant: 1, Group: 1}
	hosts := []topology.HostID{0, 1, 40, 48, 49, 63}
	members := make(map[topology.HostID]controller.Role)
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	lf.Start()
	defer lf.Stop()

	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	if err := lf.Send(0, addr, []byte("traced live")); err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts[1:] {
		select {
		case <-lf.HostRx(h):
		case <-time.After(5 * time.Second):
			t.Fatalf("host %d: no delivery", h)
		}
	}

	// Hop order across branches is scheduler-dependent, but the set of
	// switches is the same deterministic multicast tree the synchronous
	// fabric builds (ECMP is a pure flow hash).
	rendered := trace.RenderPath(rec.Snapshot(), uint32(key.Tenant), uint32(key.Group))
	for _, want := range []string{
		"group vni=1 g=1: host 0",
		"leaf 0 [p-rule ports=01000000 up=10",
		"spine 0 [p-rule up=01",
		"core 1 [p-rule ports=0011",
		"spine 6 [s-rule ports=11",
		"leaf 5 [p-rule ports=10000000",
		"leaf 6 [p-rule ports=11000000",
		"leaf 7 [p-rule ports=00000001",
		"host 40 ✓", "host 48 ✓", "host 49 ✓", "host 63 ✓",
	} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered path missing %q:\n%s", want, rendered)
		}
	}
	var delivers int
	for _, ev := range rec.Snapshot() {
		if ev.Kind == trace.KindDeliver {
			delivers++
		}
	}
	if delivers != len(hosts)-1 {
		t.Fatalf("want %d delivery events, got %d", len(hosts)-1, delivers)
	}
}
