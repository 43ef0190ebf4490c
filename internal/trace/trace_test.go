package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func hopEvent(sw int32, rule RuleKind) Event {
	var ports, up PortMask
	ports.Set(1)
	ports.Set(2)
	up.Set(0)
	return Event{
		Cat: CatHop, Kind: KindHop, Tier: TierLeaf, Switch: sw,
		Rule: rule, VNI: 7, Group: 9,
		Ports: ports, PortWidth: 4, UpPorts: up, UpWidth: 2, Popped: 6,
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := New(Config{Capacity: 16})
	if On(r, CatHop) {
		t.Fatal("new recorder should start disabled")
	}
	r.Record(hopEvent(1, RulePRule))
	if r.Len() != 0 {
		t.Fatalf("disabled recorder stored %d events", r.Len())
	}
	var nilRec Recorder
	if On(nilRec, CatHop) {
		t.Fatal("nil recorder must be off")
	}
}

func TestEnablePerCategory(t *testing.T) {
	r := New(Config{Capacity: 16})
	r.Enable(CatControl)
	if On(r, CatHop) {
		t.Fatal("hop category should stay off")
	}
	if !On(r, CatControl) {
		t.Fatal("control category should be on")
	}
	r.Record(hopEvent(1, RulePRule)) // wrong category: ignored
	r.Record(Event{Cat: CatControl, Kind: KindJoin, VNI: 1, Group: 2, Arg: 5})
	if r.Len() != 1 {
		t.Fatalf("got %d events, want 1", r.Len())
	}
	r.Enable() // no args = everything
	if !On(r, CatHop) || !On(r, CatEncoder) {
		t.Fatal("Enable() should turn all categories on")
	}
	r.Disable()
	if On(r, CatControl) {
		t.Fatal("Disable should turn everything off")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New(Config{Capacity: 4})
	r.Enable(CatHop)
	for i := 0; i < 10; i++ {
		r.Record(hopEvent(int32(i), RulePRule))
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring held %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int32(6 + i); ev.Switch != want {
			t.Fatalf("event %d switch = %d, want %d (oldest-first order)", i, ev.Switch, want)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-monotonic Seq: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(Config{Capacity: 1024})
	r.Enable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(hopEvent(int32(g), RulePRule))
			}
		}(g)
	}
	wg.Wait()
	evs := r.Snapshot()
	if len(evs) != 1024 {
		t.Fatalf("ring held %d, want full 1024", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
}

func TestOnDisabledPathDoesNotAllocate(t *testing.T) {
	r := New(Config{Capacity: 16})
	var rec Recorder = r
	if n := testing.AllocsPerRun(1000, func() {
		if On(rec, CatHop) {
			t.Fatal("should be disabled")
		}
	}); n != 0 {
		t.Fatalf("disabled-path guard allocates %.1f per run, want 0", n)
	}
}

func TestPortMask(t *testing.T) {
	var m PortMask
	if !m.Empty() {
		t.Fatal("zero mask should be empty")
	}
	m.Set(1)
	m.Set(3)
	m.Set(500) // beyond capacity: ignored, not a panic
	if got := m.BitString(5); got != "01010" {
		t.Fatalf("BitString = %q, want 01010", got)
	}
	if got := m.Ports(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Ports = %v", got)
	}
}

func TestRenderPath(t *testing.T) {
	evs := []Event{
		{Cat: CatHost, Kind: KindEncap, Tier: TierHost, Switch: 0, VNI: 7, Group: 9},
		hopEvent(1, RulePRule),
		{Cat: CatHop, Kind: KindHop, Tier: TierSpine, Switch: 2, Rule: RuleSRule, VNI: 7, Group: 9},
		{Cat: CatHop, Kind: KindHop, Tier: TierLeaf, Switch: 3, Rule: RuleDefault, VNI: 7, Group: 9},
		{Cat: CatHost, Kind: KindDeliver, Tier: TierHost, Switch: 12, VNI: 7, Group: 9},
		{Cat: CatHost, Kind: KindFilter, Tier: TierHost, Switch: 13, VNI: 7, Group: 9},
		// Different group: must be filtered out.
		{Cat: CatHop, Kind: KindHop, Tier: TierCore, Switch: 99, Rule: RulePRule, VNI: 1, Group: 1},
	}
	got := RenderPath(evs, 7, 9)
	for _, want := range []string{
		"group vni=7 g=9: host 0",
		"leaf 1 [p-rule ports=0110 up=10 popped=6B]",
		"spine 2 [s-rule]",
		"leaf 3 [default]",
		"host 12 ✓",
		"host 13 ✗",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("RenderPath missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "core 99") {
		t.Fatalf("RenderPath leaked another group's hop:\n%s", got)
	}
	if RenderPath(evs, 5, 5) != "" {
		t.Fatal("RenderPath of absent group should be empty")
	}
}

func TestRenderControl(t *testing.T) {
	evs := []Event{
		{Cat: CatControl, Kind: KindJoin, VNI: 1, Group: 2, Arg: 40},
		{Cat: CatControl, Kind: KindFailSpine, Tier: TierController, Switch: 3, Arg: 2},
		{Cat: CatEncoder, Kind: KindEncode, VNI: 1, Group: 2, Note: "R=0 HmaxLeaf=30"},
		hopEvent(1, RulePRule), // not a control event
	}
	got := RenderControl(evs)
	for _, want := range []string{"join", "host=40", "fail-spine", "spine=3 impacted=2", "R=0 HmaxLeaf=30"} {
		if !strings.Contains(got, want) {
			t.Fatalf("RenderControl missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "hop") {
		t.Fatalf("RenderControl included a hop event:\n%s", got)
	}
	if n := len(strings.Split(strings.TrimRight(got, "\n"), "\n")); n != 3 {
		t.Fatalf("RenderControl produced %d lines, want 3", n)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	r := New(Config{Capacity: 64})
	r.Enable()
	r.Record(Event{Cat: CatHost, Kind: KindEncap, Tier: TierHost, Switch: 0, VNI: 7, Group: 9})
	r.Record(hopEvent(1, RulePRule))
	r.Record(Event{Cat: CatControl, Kind: KindFailSpine, Tier: TierController, Switch: 2, Arg: 1, Note: "x"})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range decoded.TraceEvents {
		if ev["ph"] == "X" {
			complete++
			for _, field := range []string{"name", "ts", "pid", "tid"} {
				if _, ok := ev[field]; !ok {
					t.Fatalf("complete event missing %q: %v", field, ev)
				}
			}
		}
	}
	if complete != 3 {
		t.Fatalf("got %d complete events, want 3 (one per recorded event)", complete)
	}
}
