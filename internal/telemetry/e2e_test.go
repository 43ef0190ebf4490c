// End-to-end acceptance test for the telemetry pipeline: a live churn
// soak with the HTTP endpoint up, scraped over real HTTP while events
// flow, plus exact snapshot-diff assertions against controller state
// transitions. Lives in the external test package so it can pull in the
// instrumented layers (controller, fabric, churn) without a cycle.
package telemetry_test

import (
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"elmo/internal/churn"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

func e2eTopo(t testing.TB) *topology.Topology {
	t.Helper()
	return topology.MustNew(topology.Config{
		Pods: 2, SpinesPerPod: 2, LeavesPerPod: 2, HostsPerLeaf: 4, CoresPerPlane: 1,
	})
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	return string(body)
}

// checkExposition validates the scrape as Prometheus text: every line
// is a comment or "series value", every TYPE is declared once, and
// every series belongs to a declared family.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if typed[parts[2]] {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typed[strings.TrimSuffix(name, suf)] {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if !typed[base] {
			t.Fatalf("series %q has no TYPE declaration", name)
		}
	}
}

// TestScrapeDuringChurnSoak runs the full pipeline: an instrumented
// controller and fabric behind a live /metrics listener, a churn soak
// scraped over HTTP while it runs, and a final scrape asserted to carry
// the controller occupancy gauges, per-tier forward counters, and
// install-latency histogram buckets.
func TestScrapeDuringChurnSoak(t *testing.T) {
	topo := e2eTopo(t)
	cfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntime(reg)
	ctrl.EnableMetrics(reg)

	f := fabric.New(topo, cfg.SRuleCapacity)
	f.SetFailures(ctrl.Failures())
	f.SetMetrics(fabric.NewMetrics(reg))

	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/metrics"

	// One multicast send that crosses every tier, so the per-tier
	// forward counters are live before the soak.
	key := controller.GroupKey{Tenant: 1, Group: 9999}
	members := map[topology.HostID]controller.Role{
		topo.HostAt(0, 0):                 controller.RoleBoth,
		topo.HostAt(0, 1):                 controller.RoleBoth,
		topo.HostAt(1, 0):                 controller.RoleBoth,
		topo.HostAt(topo.LeafAt(1, 0), 0): controller.RoleBoth,
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Send(topo.HostAt(0, 0), dataplane.GroupAddr{VNI: 1, Group: 9999}, []byte("e2e")); err != nil {
		t.Fatal(err)
	}

	// The churn workload: bulk-install through the batch pipeline (the
	// install-latency histogram), then a soak scraped while it runs.
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 8, VMsPerHost: 20, MinVMs: 5, MaxVMs: 12, MeanVMs: 8, P: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: 120, MinSize: 5, Dist: groupgen.WVE, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := churn.Setup(ctrl, dep, gs, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := churn.Run(ctrl, dep, gs, churn.Config{
			Events: 4000, EventsPerSecond: 1000, Seed: 9,
			Metrics: churn.NewMetrics(reg),
		})
		done <- err
	}()
	scrapes := 0
soak:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			break soak
		default:
			checkExposition(t, scrape(t, url))
			scrapes++
		}
	}
	if scrapes == 0 {
		t.Fatal("soak finished before a single concurrent scrape")
	}

	body := scrape(t, url)
	checkExposition(t, body)
	for _, want := range []string{
		// Controller occupancy gauges vs Fmax.
		`elmo_controller_srule_occupancy{tier="leaf",stat="total"}`,
		`elmo_controller_srule_occupancy{tier="spine",stat="max"}`,
		"elmo_controller_srule_capacity",
		"elmo_controller_groups",
		// Per-tier forward counters from the send above.
		`elmo_dataplane_packets_total{tier="leaf"}`,
		`elmo_dataplane_packets_total{tier="spine"}`,
		`elmo_dataplane_packets_total{tier="core"}`,
		// Install-latency histogram buckets from the batch pipeline.
		`elmo_controller_op_duration_seconds_bucket{op="install",le="+Inf"}`,
		`elmo_controller_op_duration_seconds_count{op="install"}`,
		// Live churn counters.
		"elmo_churn_events_applied_total",
		// Runtime collector.
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}

	// The install histogram observed exactly one commit per group.
	snap := reg.Snapshot()
	if got := snap.Get(`elmo_controller_op_duration_seconds_count{op="install"}`); got != float64(len(gs)) {
		t.Errorf("install observations = %v, want %d", got, len(gs))
	}
	if snap.Get("elmo_churn_events_applied_total") == 0 {
		t.Error("churn applied counter did not move")
	}
}

// TestSnapshotDiffExactOperationDeltas drives a deterministic operation
// sequence and asserts the snapshot diff reproduces it as exact counter
// deltas — the API tests lean on for precise assertions.
func TestSnapshotDiffExactOperationDeltas(t *testing.T) {
	topo := e2eTopo(t)
	ctrl, err := controller.New(topo, controller.PaperConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ctrl.EnableMetrics(reg)

	key := controller.GroupKey{Tenant: 2, Group: 1}
	if _, err := ctrl.CreateGroup(key, map[topology.HostID]controller.Role{
		topo.HostAt(0, 0): controller.RoleBoth,
		topo.HostAt(0, 1): controller.RoleBoth,
	}); err != nil {
		t.Fatal(err)
	}

	before := reg.Snapshot()
	joined := []topology.HostID{
		topo.HostAt(1, 0), topo.HostAt(1, 1), topo.HostAt(topo.LeafAt(1, 0), 0),
	}
	for _, h := range joined {
		if err := ctrl.Join(key, h, controller.RoleReceiver); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range joined[:2] {
		if err := ctrl.Leave(key, h, controller.RoleReceiver); err != nil {
			t.Fatal(err)
		}
	}
	delta := reg.Snapshot().Delta(before)

	for series, want := range map[string]float64{
		`elmo_controller_ops_total{op="join"}`:                            3,
		`elmo_controller_ops_total{op="leave"}`:                           2,
		`elmo_controller_op_duration_seconds_count{op="join"}`:            3,
		`elmo_controller_op_duration_seconds_count{op="leave"}`:           2,
		`elmo_controller_op_duration_seconds_bucket{op="join",le="+Inf"}`: 3,
	} {
		if got := delta.Get(series); got != want {
			t.Errorf("delta[%s] = %v, want %v", series, got, want)
		}
	}
	if got := delta.Get(`elmo_controller_ops_total{op="create"}`); got != 0 {
		t.Errorf("create delta = %v, want 0 (create happened before the baseline)", got)
	}
	// Joins and leaves recompute the tree each time: 5 recomputes.
	if got := delta.Get("elmo_controller_recomputes_total"); got != 5 {
		t.Errorf("recompute delta = %v, want 5", got)
	}

	// A second identical snapshot diffs to nothing.
	a := reg.Snapshot()
	if d := reg.Snapshot().Delta(a); len(d) != 0 {
		t.Errorf("idle delta not empty: %v", d)
	}
}
