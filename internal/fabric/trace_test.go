package fabric

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/raceflag"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// tracedSetup is setup plus an enabled flight recorder on both the
// controller and the fabric.
func tracedSetup(t *testing.T, cfg controller.Config) (*controller.Controller, *Fabric, *trace.FlightRecorder) {
	t.Helper()
	ctrl, f := setup(t, paperTopo(), cfg)
	rec := trace.New(trace.Config{})
	rec.Enable()
	ctrl.SetTracer(rec)
	f.SetTracer(rec)
	return ctrl, f, rec
}

func mustContain(t *testing.T, rendered string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(rendered, w) {
			t.Fatalf("rendered path missing %q:\n%s", w, rendered)
		}
	}
}

// TestTracePathFigure3 records the paper's Fig. 3 group send on the
// synchronous fabric and checks the rendered path names the exact
// switches traversed and the rule kind that matched at each.
func TestTracePathFigure3(t *testing.T) {
	ctrl, f, rec := tracedSetup(t, testConfig(0))
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())

	d, err := f.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("traced"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Lost != 0 || len(d.Received) != len(figure3Hosts())-1 {
		t.Fatalf("delivery: %s", d)
	}

	rendered := trace.RenderPath(rec.Snapshot(), 1, 1)
	// The multicast tree is deterministic (ECMP is a pure flow hash):
	// leaf 0 forwards locally and up, spine 0 → core 1 fan out to pods
	// 2 and 3, spine 6 matches the s-rule the encoder spilled to, and
	// the destination leaves use their p-rule bitmaps.
	mustContain(t, rendered,
		"group vni=1 g=1: host 0",
		"leaf 0 [p-rule ports=01000000 up=10",
		"host 1 ✓",
		"spine 0 [p-rule up=01",
		"core 1 [p-rule ports=0011",
		"spine 4 [p-rule ports=01",
		"spine 6 [s-rule ports=11",
		"leaf 5 [p-rule ports=10000000",
		"host 40 ✓",
		"leaf 6 [p-rule ports=11000000",
		"host 48 ✓", "host 49 ✓",
		"leaf 7 [p-rule ports=00000001",
		"host 63 ✓",
	)
	if strings.Contains(rendered, "✗") {
		t.Fatalf("p-rule encoding should deliver without spurious copies:\n%s", rendered)
	}
}

// TestTracePathSRules forces every downstream switch onto s-rules
// (p-rule budgets of zero) and checks the rendered path reports them.
func TestTracePathSRules(t *testing.T) {
	cfg := testConfig(0)
	cfg.SpineRuleLimit = 0
	cfg.LeafRuleLimit = 0
	ctrl, f, rec := tracedSetup(t, cfg)
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())

	d, err := f.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("traced"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Lost != 0 || len(d.Received) != len(figure3Hosts())-1 {
		t.Fatalf("delivery: %s", d)
	}
	mustContain(t, trace.RenderPath(rec.Snapshot(), 1, 1),
		"spine 4 [s-rule ports=01]",
		"spine 6 [s-rule ports=11]",
		"leaf 5 [s-rule ports=10000000]",
		"leaf 6 [s-rule ports=11000000]",
		"leaf 7 [s-rule ports=00000001]",
	)
}

// TestTracePathDefaultRules removes both the p-rule budget and the
// s-rule capacity so downstream switches fall back to the default
// p-rule, and checks the trace shows the default matches and the
// spurious copies the hypervisors filtered (§4.1).
func TestTracePathDefaultRules(t *testing.T) {
	cfg := testConfig(0)
	cfg.SpineRuleLimit = 0
	cfg.LeafRuleLimit = 0
	cfg.SRuleCapacity = 0
	ctrl, f, rec := tracedSetup(t, cfg)
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())

	d, err := f.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("traced"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Lost != 0 || len(d.Received) != len(figure3Hosts())-1 {
		t.Fatalf("delivery: %s", d)
	}
	rendered := trace.RenderPath(rec.Snapshot(), 1, 1)
	mustContain(t, rendered,
		"spine 4 [default",
		"leaf 5 [default",
		"host 40 ✓",
		"host 41 ✗", // default rule floods the rack; hypervisor filters
	)
	evs := rec.Snapshot()
	var defaults, filtered int
	for _, ev := range evs {
		if ev.Kind == trace.KindHop && ev.Rule == trace.RuleDefault {
			defaults++
		}
		if ev.Kind == trace.KindFilter {
			filtered++
		}
	}
	if defaults == 0 || filtered == 0 {
		t.Fatalf("want default-rule hops and filtered copies, got %d/%d:\n%s",
			defaults, filtered, rendered)
	}
}

// TestTraceChromeExportFromSend records a real Fig. 3 send and checks
// the Chrome trace_event JSON decodes and carries at least one complete
// ("X") event per recorded hop, with the rule kind in its args.
func TestTraceChromeExportFromSend(t *testing.T) {
	ctrl, f, rec := tracedSetup(t, testConfig(0))
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())
	if _, err := f.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("traced")); err != nil {
		t.Fatal(err)
	}

	evs := rec.Snapshot()
	var hops int
	for _, ev := range evs {
		if ev.Kind == trace.KindHop {
			hops++
		}
	}
	if hops < 3 {
		t.Fatalf("want a multi-hop trace, got %d hops", hops)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			PID  int                    `json:"pid"`
			TID  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome JSON does not decode: %v", err)
	}
	var complete, hopEvents int
	for _, te := range file.TraceEvents {
		if te.Ph != "X" {
			continue
		}
		complete++
		if te.Args == nil {
			t.Fatalf("complete event %q missing args", te.Name)
		}
		if te.Args["kind"] == "hop" {
			hopEvents++
			if r, ok := te.Args["rule"].(string); !ok || r == "" || r == "-" {
				t.Fatalf("hop event %q missing rule kind: %v", te.Name, te.Args)
			}
		}
	}
	if complete < len(evs) {
		t.Fatalf("want %d complete events, got %d", len(evs), complete)
	}
	if hopEvents != hops {
		t.Fatalf("want %d hop events in JSON, got %d", hops, hopEvents)
	}
}

// TestTraceDisabledAddsNoAllocations checks the acceptance bar for the
// disabled path: a fabric with a disabled recorder attached allocates
// exactly as much per packet as a fabric with no recorder at all.
func TestTraceDisabledAddsNoAllocations(t *testing.T) {
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

	ctrl2, traced := setup(t, paperTopo(), testConfig(0))
	rec := trace.New(trace.Config{}) // never enabled
	ctrl2.SetTracer(rec)
	traced.SetTracer(rec)
	installGroup(t, ctrl2, traced, key, figure3Hosts())
	withDisabled := testing.AllocsPerRun(200, send(traced))

	if withDisabled != baseline {
		t.Fatalf("disabled recorder changed allocations: %.1f → %.1f per send",
			baseline, withDisabled)
	}
	if rec.Len() != 0 {
		t.Fatalf("disabled recorder captured %d events", rec.Len())
	}
}

// BenchmarkForwardTraceOff measures the fabric forward path with a
// disabled recorder attached — the overhead budget is one atomic load
// per check and zero allocations.
func BenchmarkForwardTraceOff(b *testing.B) {
	topo := paperTopo()
	ctrl, err := controller.New(topo, testConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	f := New(topo, testConfig(0).SRuleCapacity)
	f.SetFailures(ctrl.Failures())
	rec := trace.New(trace.Config{}) // attached but never enabled
	ctrl.SetTracer(rec)
	f.SetTracer(rec)

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
	payload := make([]byte, 256)

	b.ReportAllocs()
	b.ResetTimer()
	copies := 0
	for i := 0; i < b.N; i++ {
		d, err := f.Send(0, addr, payload)
		if err != nil {
			b.Fatal(err)
		}
		copies += len(d.Received)
	}
	reportPerCopy(b, copies)
}
