package chaos

import (
	"bytes"
	"errors"
	"testing"

	"elmo/internal/dataplane"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// TestMonitorDetectsSpineFlap kills a spine at the physical layer (an
// injector loss override — the controller is never told directly),
// checks the monitor detects it from probe loss after FailAfter
// consecutive rounds, refreshes the watched flow around the failure,
// and on repair converges the sender header back to the exact
// pre-failure encoding.
func TestMonitorDetectsSpineFlap(t *testing.T) {
	_, ctrl, fab, inj, key := chaosFixture(t, Config{Seed: 1})
	inj.Enable()
	preWire, err := ctrl.SenderStream(key, fixtureSender)
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.New(trace.Config{})
	rec.Enable()
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch(key, fixtureSender)

	if tr := mon.ProbeRound(); len(tr) != 0 {
		t.Fatalf("healthy fabric produced transitions: %+v", tr)
	}

	// Physically kill spine 0 (the sender pod's plane-0 spine).
	inj.SetSwitchLoss(dataplane.LinkSpine, 0, 1.0)
	if tr := mon.ProbeRound(); len(tr) != 0 {
		t.Fatalf("declared after 1 lost round (FailAfter=2): %+v", tr)
	}
	tr := mon.ProbeRound()
	if len(tr) != 1 || tr[0].Tier != dataplane.LinkSpine || tr[0].ID != 0 || !tr[0].Down {
		t.Fatalf("want spine-0 down transition, got %+v", tr)
	}
	if !mon.SpineDown(0) || !ctrl.Failures().SpineFailed(0) {
		t.Fatal("detection did not reach the controller's failure set")
	}

	// The refreshed header routes around the dead spine: multicast
	// still reaches every receiver mid-failure.
	mid, err := ctrl.HeaderFor(key, fixtureSender)
	if err != nil {
		t.Fatal(err)
	}
	if mid.ULeaf.Multipath {
		t.Fatal("failure-mode header still multipaths")
	}
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	d, err := fab.Send(fixtureSender, addr, []byte("mid-failure"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range fixtureReceivers {
		if _, ok := d.Received[h]; !ok {
			t.Fatalf("host %d lost mid-failure delivery", h)
		}
	}

	// Repair the device; after RepairAfter clean rounds the monitor
	// reverses the declaration and the encoding converges byte-for-byte.
	inj.SetSwitchLoss(dataplane.LinkSpine, 0, 0)
	mon.ProbeRound()
	tr = mon.ProbeRound()
	if len(tr) != 1 || tr[0].Down {
		t.Fatalf("want spine-0 repair transition, got %+v", tr)
	}
	if mon.SpineDown(0) || ctrl.Failures().SpineFailed(0) {
		t.Fatal("repair did not clear the failure")
	}
	postWire, err := ctrl.SenderStream(key, fixtureSender)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preWire, postWire) {
		t.Fatalf("post-repair encoding differs from pre-failure:\npre  %x\npost %x", preWire, postWire)
	}

	var fails, repairs int
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case trace.KindDetectFail:
			fails++
		case trace.KindDetectRepair:
			repairs++
		}
	}
	if fails != 1 || repairs != 1 {
		t.Fatalf("want 1 detect-fail + 1 detect-repair event, got %d/%d", fails, repairs)
	}
}

// TestMonitorDetectsCoreFailure: a dead core is detected by the
// cross-pod probes and declared to the controller.
func TestMonitorDetectsCoreFailure(t *testing.T) {
	_, ctrl, fab, inj, key := chaosFixture(t, Config{Seed: 2})
	inj.Enable()
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch(key, fixtureSender)

	inj.SetSwitchLoss(dataplane.LinkCore, 3, 1.0)
	mon.ProbeRound()
	tr := mon.ProbeRound()
	if len(tr) != 1 || tr[0].Tier != dataplane.LinkCore || tr[0].ID != 3 || !tr[0].Down {
		t.Fatalf("want core-3 down transition, got %+v", tr)
	}
	if !mon.CoreDown(3) || !ctrl.Failures().CoreFailed(3) {
		t.Fatal("core detection did not reach the controller")
	}
	inj.SetSwitchLoss(dataplane.LinkCore, 3, 0)
	mon.ProbeRound()
	if tr := mon.ProbeRound(); len(tr) != 1 || tr[0].Down {
		t.Fatalf("want core-3 repair transition, got %+v", tr)
	}
}

// TestMonitorDegradesToUnicast kills both spines of the sender's pod:
// the controller finds no path (§3.3), the monitor pulls the sender
// flow so publishers fall back to unicast, and repair restores
// multicast.
func TestMonitorDegradesToUnicast(t *testing.T) {
	_, ctrl, fab, inj, key := chaosFixture(t, Config{Seed: 3})
	inj.Enable()
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch(key, fixtureSender)
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}

	inj.SetSwitchLoss(dataplane.LinkSpine, 0, 1.0)
	inj.SetSwitchLoss(dataplane.LinkSpine, 1, 1.0)
	mon.ProbeRound()
	mon.ProbeRound()
	if !mon.SpineDown(0) || !mon.SpineDown(1) {
		t.Fatal("pod-0 spines not both detected")
	}
	if !mon.Degraded(key, fixtureSender) {
		t.Fatal("flow with no healthy path not degraded")
	}
	if _, err := fab.Send(fixtureSender, addr, []byte("x")); !errors.Is(err, dataplane.ErrNoSenderFlow) {
		t.Fatalf("degraded flow still has a sender flow (err=%v)", err)
	}

	inj.SetSwitchLoss(dataplane.LinkSpine, 0, 0)
	inj.SetSwitchLoss(dataplane.LinkSpine, 1, 0)
	mon.ProbeRound()
	mon.ProbeRound()
	if mon.Degraded(key, fixtureSender) {
		t.Fatal("flow still degraded after repair")
	}
	d, err := fab.Send(fixtureSender, addr, []byte("restored"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range fixtureReceivers {
		if _, ok := d.Received[h]; !ok {
			t.Fatalf("host %d missing post-repair delivery", h)
		}
	}
}

// TestMonitorStaleEpochRefreshFails: a fabric a leader has written at
// epoch 1 refuses the monitor's epoch-0 refresh. The refusal is
// deterministic, so the monitor makes one install attempt — no retry,
// no backoff — and counts one refresh failure.
func TestMonitorStaleEpochRefreshFails(t *testing.T) {
	_, ctrl, fab, inj, key := chaosFixture(t, Config{Seed: 4})
	inj.Enable()
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch(key, fixtureSender)
	if _, err := fab.InstallGroupAt(1, ctrl, key); err != nil {
		t.Fatal(err)
	}
	fence := fab.Hypervisors[fixtureSender].Fence()
	before := fence.Rejected()

	inj.SetSwitchLoss(dataplane.LinkSpine, 0, 1.0)
	mon.ProbeRound()
	if tr := mon.ProbeRound(); len(tr) != 1 || !tr[0].Down {
		t.Fatalf("spine 0 not declared down: %+v", tr)
	}
	if mon.RefreshFailures != 1 {
		t.Fatalf("RefreshFailures = %d, want 1", mon.RefreshFailures)
	}
	if got := fence.Rejected() - before; got != 1 {
		t.Fatalf("sender's fence rejected %d refreshes, want exactly 1 attempt", got)
	}
}

// TestMonitorGrayFailure: a 50% lossy spine flaps probes but the
// consecutive-round thresholds keep detection stable — it is declared
// failed only once probe loss is persistent, and ambient chaos on
// ordinary traffic never triggers declarations (probes skip ambient
// faults).
func TestMonitorAmbientChaosNoFalsePositives(t *testing.T) {
	_, ctrl, fab, inj, key := chaosFixture(t, Config{
		Seed: 5, Drop: 0.3, Duplicate: 0.2, Corrupt: 0.1, Reorder: 0.2,
	})
	inj.Enable()
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch(key, fixtureSender)
	for i := 0; i < 20; i++ {
		if tr := mon.ProbeRound(); len(tr) != 0 {
			t.Fatalf("round %d: ambient chaos caused declarations: %+v", i, tr)
		}
	}
	for s := 0; s < fab.Topology().NumSpines(); s++ {
		if mon.SpineDown(topology.SpineID(s)) {
			t.Fatalf("spine %d falsely down", s)
		}
	}
	_ = ctrl
	_ = key
}
