package chaos

import (
	"bytes"
	"testing"

	"elmo/internal/dataplane"
	"elmo/internal/trace"
)

func testLink() dataplane.Link {
	return dataplane.Link{
		FromTier: dataplane.LinkLeaf, From: 0,
		ToTier: dataplane.LinkSpine, To: 1,
	}
}

// TestInjectorDeterminism: two injectors with the same seed produce
// the same verdict sequence; a different seed diverges.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.2, Duplicate: 0.1, Corrupt: 0.1, Reorder: 0.2}
	verdicts := func(seed uint64) []dataplane.FaultVerdict {
		inj := New(Config{Seed: seed, Drop: cfg.Drop, Duplicate: cfg.Duplicate,
			Corrupt: cfg.Corrupt, Reorder: cfg.Reorder})
		inj.Enable()
		out := make([]dataplane.FaultVerdict, 200)
		for i := range out {
			out[i] = inj.Cross(testLink(), 1, 1)
		}
		return out
	}
	a, b := verdicts(42), verdicts(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := verdicts(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical verdict sequences")
	}
}

// TestInjectorDisabledIsInert: an armed config with the injector
// disabled never fires, and the probe's guard short-circuits.
func TestInjectorDisabledIsInert(t *testing.T) {
	inj := New(Config{Seed: 1, Drop: 1})
	probe := &dataplane.Probe{Injector: inj}
	if probe.Faulting() {
		t.Fatal("disabled injector reports active")
	}
	if v := inj.Cross(testLink(), 1, 1); v != (dataplane.FaultVerdict{}) {
		t.Fatalf("disabled injector fired: %+v", v)
	}
	inj.Enable()
	if !probe.Faulting() {
		t.Fatal("enabled injector reports inactive")
	}
	if v := inj.Cross(testLink(), 1, 1); !v.Drop {
		t.Fatal("drop probability 1 did not drop")
	}
}

// TestInjectorOverrides: a dead switch kills every crossing touching
// it (including probes), a gray switch drops a fraction, and clearing
// restores clean forwarding.
func TestInjectorOverrides(t *testing.T) {
	inj := New(Config{Seed: 7})
	inj.Enable()
	if v := inj.Cross(testLink(), 1, 1); v.Drop {
		t.Fatal("no-fault injector dropped")
	}
	inj.SetSwitchLoss(dataplane.LinkSpine, 1, 1.0)
	if v := inj.Cross(testLink(), 1, 1); !v.Drop {
		t.Fatal("dead switch did not drop")
	}
	if v := inj.Cross(testLink(), dataplane.ProbeVNI, 1); !v.Drop {
		t.Fatal("dead switch did not drop the probe")
	}
	other := dataplane.Link{FromTier: dataplane.LinkLeaf, From: 2, ToTier: dataplane.LinkSpine, To: 3}
	if v := inj.Cross(other, 1, 1); v.Drop {
		t.Fatal("unrelated link dropped")
	}
	// Gray failure: ~50% loss.
	inj.SetSwitchLoss(dataplane.LinkSpine, 1, 0.5)
	drops := 0
	for i := 0; i < 1000; i++ {
		if inj.Cross(testLink(), 1, 1).Drop {
			drops++
		}
	}
	if drops < 350 || drops > 650 {
		t.Fatalf("gray 0.5 loss dropped %d of 1000", drops)
	}
	inj.SetSwitchLoss(dataplane.LinkSpine, 1, 0)
	if v := inj.Cross(testLink(), 1, 1); v.Drop {
		t.Fatal("cleared override still drops")
	}
}

// TestInjectorProbesSkipAmbientFaults: probe traffic ignores ambient
// drop/dup/corrupt/reorder (it measures device health only).
func TestInjectorProbesSkipAmbientFaults(t *testing.T) {
	inj := New(Config{Seed: 9, Drop: 1, Duplicate: 1, Corrupt: 1, Reorder: 1})
	inj.Enable()
	for i := 0; i < 50; i++ {
		if v := inj.Cross(testLink(), dataplane.ProbeVNI, 3); v != (dataplane.FaultVerdict{}) {
			t.Fatalf("probe got ambient fault: %+v", v)
		}
	}
}

// TestFaultPlanFlap scripts fail-at-3 / repair-at-6 and walks the
// logical clock through the flap.
func TestFaultPlanFlap(t *testing.T) {
	inj := New(Config{Seed: 11})
	inj.Enable()
	inj.LoadPlan(FaultPlan{
		{Step: 3, Tier: dataplane.LinkSpine, Switch: 1, Loss: 1.0},
		{Step: 6, Tier: dataplane.LinkSpine, Switch: 1, Loss: 0},
	})
	for step := 1; step <= 8; step++ {
		applied := inj.Step()
		switch step {
		case 3, 6:
			if len(applied) != 1 {
				t.Fatalf("step %d applied %d events", step, len(applied))
			}
		default:
			if len(applied) != 0 {
				t.Fatalf("step %d applied %d events", step, len(applied))
			}
		}
		dropped := inj.Cross(testLink(), 1, 1).Drop
		want := step >= 3 && step < 6
		if dropped != want {
			t.Fatalf("step %d: drop=%v want %v", step, dropped, want)
		}
	}
	if inj.Now() != 8 {
		t.Fatalf("clock at %d, want 8", inj.Now())
	}
}

// TestCorruptWire flips at least one byte, deterministically per seed.
func TestCorruptWire(t *testing.T) {
	frame := func() []byte { return []byte("elmo header bytes to corrupt") }
	a, b := frame(), frame()
	New(Config{Seed: 5}).CorruptWire(a)
	if bytes.Equal(a, frame()) {
		t.Fatal("corruption changed nothing")
	}
	New(Config{Seed: 5}).CorruptWire(b)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed corrupted differently")
	}
}

// TestInjectorTracesFaults: fired faults land in the flight recorder
// under CatChaos.
func TestInjectorTracesFaults(t *testing.T) {
	inj := New(Config{Seed: 3, Drop: 1})
	rec := trace.New(trace.Config{})
	rec.Enable()
	inj.Tracer = rec
	inj.Enable()
	inj.Cross(testLink(), 7, 9)
	evs := rec.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("want 1 chaos event, got %d", len(evs))
	}
	ev := evs[0]
	if ev.Cat != trace.CatChaos || ev.Kind != trace.KindFaultDrop {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.Tier != trace.TierSpine || ev.Switch != 1 || ev.VNI != 7 || ev.Group != 9 {
		t.Fatalf("bad event location: %+v", ev)
	}
	if s := inj.Stats(); s.Drops != 1 || s.Crossings != 1 {
		t.Fatalf("bad stats: %+v", s)
	}
}
