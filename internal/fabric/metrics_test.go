package fabric

import (
	"strings"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/raceflag"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// TestMetricsCountForwarding sends one deterministic Fig. 3 multicast
// with telemetry attached and asserts the per-tier counters via an
// exact snapshot diff — the send's rule-hit and delivery profile is
// fully determined by the encoding, so the deltas are exact numbers,
// not ranges.
func TestMetricsCountForwarding(t *testing.T) {
	ctrl, f := setup(t, paperTopo(), testConfig(0))
	reg := telemetry.NewRegistry()
	f.SetMetrics(NewMetrics(reg))
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())

	before := reg.Snapshot()
	d, err := f.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("metered"))
	if err != nil {
		t.Fatal(err)
	}
	delta := reg.Snapshot().Delta(before)

	// Cross-check the telemetry deltas against the Delivery the same
	// send reported — the two accounts must agree exactly.
	want := map[string]float64{
		"elmo_host_encapsulated_total":     1,
		"elmo_host_delivered_total":        float64(len(d.Received)),
		"elmo_fabric_hops_total":           float64(d.Hops),
		"elmo_fabric_link_bytes_total":     float64(d.LinkBytes),
		"elmo_fabric_link_crossings_total": float64(d.Links),
	}
	for k, v := range want {
		if got := delta.Get(k); got != v {
			t.Errorf("delta[%s] = %v, want %v", k, got, v)
		}
	}
	if d.Spurious == 0 {
		if got := delta.Get("elmo_host_filtered_total"); got != 0 {
			t.Errorf("filtered delta = %v with no spurious deliveries", got)
		}
	}

	// Per-tier packet counters: every hop lands in exactly one tier.
	tiers := delta.Get(`elmo_dataplane_packets_total{tier="leaf"}`) +
		delta.Get(`elmo_dataplane_packets_total{tier="spine"}`) +
		delta.Get(`elmo_dataplane_packets_total{tier="core"}`)
	if tiers != float64(d.Hops) {
		t.Errorf("per-tier packets sum to %v, want %v hops", tiers, d.Hops)
	}
	if delta.Get(`elmo_dataplane_packets_total{tier="leaf"}`) == 0 ||
		delta.Get(`elmo_dataplane_packets_total{tier="spine"}`) == 0 ||
		delta.Get(`elmo_dataplane_packets_total{tier="core"}`) == 0 {
		t.Errorf("expected traffic in all three tiers, delta: %v", delta)
	}

	// Fig. 3 pops header sections at every modern hop; the byte counter
	// must move and the rule-hit counters must cover every forward.
	if delta.Get(`elmo_dataplane_header_bytes_popped_total{tier="leaf"}`) <= 0 {
		t.Error("leaf header bytes popped did not move")
	}
	if delta.Get(`elmo_dataplane_rule_hits_total{tier="leaf",rule="prule"}`) <= 0 {
		t.Error("leaf p-rule hits did not move")
	}
}

// TestMetricsExposition scrapes the text endpoint after a send and
// checks the required families render as valid exposition lines.
func TestMetricsExposition(t *testing.T) {
	ctrl, f := setup(t, paperTopo(), testConfig(0))
	reg := telemetry.NewRegistry()
	f.SetMetrics(NewMetrics(reg))
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())
	if _, err := f.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE elmo_dataplane_packets_total counter",
		`elmo_dataplane_packets_total{tier="leaf"}`,
		`elmo_dataplane_rule_hits_total{tier="spine",rule="prule"}`,
		"elmo_host_encapsulated_total 1",
		"elmo_fabric_hops_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsAttachedAddsNoAllocations holds the dataplane hot path to
// a stronger bar than trace's disabled-parity: a fabric with telemetry
// *attached and live* allocates exactly as much per send as a bare
// fabric — counters are atomic adds into preallocated cells, so even
// the enabled path is allocation-free.
func TestMetricsAttachedAddsNoAllocations(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	send := func(f *Fabric) func() {
		addr := dataplane.GroupAddr{VNI: 1, Group: 1}
		payload := []byte("alloc probe")
		return func() {
			if _, err := f.Send(0, addr, payload); err != nil {
				t.Fatal(err)
			}
		}
	}

	ctrl, bare := setup(t, paperTopo(), testConfig(0))
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, bare, key, figure3Hosts())
	baseline := testing.AllocsPerRun(200, send(bare))

	ctrl2, metered := setup(t, paperTopo(), testConfig(0))
	reg := telemetry.NewRegistry()
	metered.SetMetrics(NewMetrics(reg))
	installGroup(t, ctrl2, metered, key, figure3Hosts())
	withMetrics := testing.AllocsPerRun(200, send(metered))

	if withMetrics != baseline {
		t.Fatalf("attached telemetry changed allocations: %.1f → %.1f per send",
			baseline, withMetrics)
	}
	if reg.Snapshot().Get("elmo_host_encapsulated_total") == 0 {
		t.Fatal("telemetry was attached but recorded nothing")
	}

	// And the detached path (nil counters) matches the baseline too.
	metered.SetMetrics(nil)
	detached := testing.AllocsPerRun(200, send(metered))
	if detached != baseline {
		t.Fatalf("detached telemetry changed allocations: %.1f → %.1f per send",
			baseline, detached)
	}
}

// BenchmarkForwardMetricsOn measures the synchronous forward path with
// live telemetry attached; the budget is a handful of atomic adds per
// hop and zero allocations beyond the bare fabric's own.
func BenchmarkForwardMetricsOn(b *testing.B) {
	topo := paperTopo()
	ctrl, err := controller.New(topo, testConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	f := New(topo, testConfig(0).SRuleCapacity)
	f.SetFailures(ctrl.Failures())
	reg := telemetry.NewRegistry()
	f.SetMetrics(NewMetrics(reg))
	key := controller.GroupKey{Tenant: 1, Group: 1}
	members := make(map[topology.HostID]controller.Role)
	for _, h := range figure3Hosts() {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		b.Fatal(err)
	}
	if _, err := f.InstallGroupAt(0, ctrl, key); err != nil {
		b.Fatal(err)
	}
	addr := dataplane.GroupAddr{VNI: 1, Group: 1}
	payload := []byte("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Send(0, addr, payload); err != nil {
			b.Fatal(err)
		}
	}
}
