package chaos

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"elmo/internal/dataplane"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

func noSleep(time.Duration) {}

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
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{Sleep: noSleep, Tracer: rec})
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
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{Sleep: noSleep})
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
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{Sleep: noSleep})
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

	inj.ClearOverrides()
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

// TestMonitorRecoveryRetryBackoff: transient install failures are
// retried with exponential backoff; a permanently failing install
// exhausts the budget and is counted, not spun on.
func TestMonitorRecoveryRetryBackoff(t *testing.T) {
	_, ctrl, fab, inj, key := chaosFixture(t, Config{Seed: 4})
	inj.Enable()
	var sleeps []time.Duration
	installs := 0
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
		InstallFn: func(fl MonitoredFlow, stream []byte) error {
			installs++
			if installs <= 2 {
				return errors.New("transient install failure")
			}
			return fab.Hypervisors[fl.Sender].InstallSenderFlowAt(0,
				dataplane.GroupAddr{VNI: fl.Key.Tenant, Group: fl.Key.Group}, stream)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch(key, fixtureSender)

	inj.SetSwitchLoss(dataplane.LinkSpine, 0, 1.0)
	mon.ProbeRound()
	mon.ProbeRound()
	if installs != 3 {
		t.Fatalf("want 3 install attempts (2 transient failures), got %d", installs)
	}
	if mon.RecoveryRetries != 2 || mon.RefreshFailures != 0 {
		t.Fatalf("retries=%d refreshFailures=%d, want 2/0", mon.RecoveryRetries, mon.RefreshFailures)
	}
	want := []time.Duration{backoffBase, 2 * backoffBase}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("backoff sleeps = %v, want %v", sleeps, want)
	}

	// Permanent failure: budget exhausts, RefreshFailures increments.
	mon2, err := NewMonitor(ctrl, fab, MonitorConfig{
		Sleep:              noSleep,
		MaxRecoveryRetries: 2,
		InstallFn: func(MonitoredFlow, []byte) error {
			return errors.New("permanent install failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon2.Watch(key, fixtureSender)
	inj.SetSwitchLoss(dataplane.LinkSpine, 0, 0)
	inj.SetSwitchLoss(dataplane.LinkSpine, 2, 1.0)
	mon2.ProbeRound()
	mon2.ProbeRound()
	if mon2.RefreshFailures != 1 {
		t.Fatalf("want 1 exhausted refresh, got %d", mon2.RefreshFailures)
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
	mon, err := NewMonitor(ctrl, fab, MonitorConfig{Sleep: noSleep})
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
