package reliable

import (
	"fmt"
	"math/rand"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

func sessionFixture(t *testing.T) (*fabric.Fabric, *controller.Controller, controller.GroupKey, topology.HostID, []topology.HostID) {
	t.Helper()
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(topo, cfg.SRuleCapacity)
	fab.SetFailures(ctrl.Failures())
	key := controller.GroupKey{Tenant: 9, Group: 1}
	sender := topology.HostID(0)
	receivers := []topology.HostID{1, 17, 40, 56}
	members := map[topology.HostID]controller.Role{sender: controller.RoleSender}
	for _, h := range receivers {
		members[h] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	return fab, ctrl, key, sender, receivers
}

func TestSessionLosslessDelivery(t *testing.T) {
	fab, ctrl, key, sender, receivers := sessionFixture(t)
	sess, err := NewSession(fab, ctrl, key, sender, 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := sess.Publish([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if sess.NAKs != 0 {
		t.Fatalf("lossless run produced %d NAKs", sess.NAKs)
	}
	for _, h := range receivers {
		got := sess.Delivered(h)
		if len(got) != n {
			t.Fatalf("host %d delivered %d of %d", h, len(got), n)
		}
		for i, p := range got {
			if string(p) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("host %d out of order at %d: %q", h, i, p)
			}
		}
	}
}

func TestSessionRecoversInjectedLoss(t *testing.T) {
	fab, ctrl, key, sender, receivers := sessionFixture(t)
	sess, err := NewSession(fab, ctrl, key, sender, 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sess.LossInjector = func(h topology.HostID, seq uint32) bool {
		return rng.Float64() < 0.35
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := sess.Publish([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if sess.NAKs == 0 {
		t.Fatal("35% loss produced no NAKs")
	}
	for _, h := range receivers {
		got := sess.Delivered(h)
		if len(got) != n {
			t.Fatalf("host %d delivered %d of %d after recovery", h, len(got), n)
		}
		for i, p := range got {
			if string(p) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("host %d out of order at %d: %q", h, i, p)
			}
		}
	}
}

// TestSessionConvergesUnderNAKLoss injects loss on both the data path
// and the NAK/RDATA control path: before the retry budget existed, one
// lost NAK wedged recovery forever. Every receiver must still converge
// to full in-order delivery, with retries (and backoff callbacks)
// recorded.
func TestSessionConvergesUnderNAKLoss(t *testing.T) {
	fab, ctrl, key, sender, receivers := sessionFixture(t)
	sess, err := NewSession(fab, ctrl, key, sender, 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sess.LossInjector = func(h topology.HostID, seq uint32) bool {
		return rng.Float64() < 0.25
	}
	var backoffs int
	sess.ControlLoss = func(msgType uint8, from, to topology.HostID) bool {
		return rng.Float64() < 0.30
	}
	sess.BackoffFn = func(attempt int) { backoffs++ }
	const n = 60
	for i := 0; i < n; i++ {
		if err := sess.Publish([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if sess.ControlDrops == 0 || sess.NAKRetries == 0 {
		t.Fatalf("control loss not exercised: drops=%d retries=%d",
			sess.ControlDrops, sess.NAKRetries)
	}
	if backoffs == 0 {
		t.Fatal("retries never invoked the backoff hook")
	}
	for _, h := range receivers {
		got := sess.Delivered(h)
		if len(got) != n {
			t.Fatalf("host %d delivered %d of %d under NAK loss (drops=%d retries=%d)",
				h, len(got), n, sess.ControlDrops, sess.NAKRetries)
		}
		for i, p := range got {
			if string(p) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("host %d out of order at %d: %q", h, i, p)
			}
		}
	}
}

// TestSessionUnicastFallback removes the sender flow (the state of a
// §3.3-degraded group) and checks Publish falls back to per-receiver
// unicast instead of failing, then resumes multicast once the flow is
// reinstalled.
func TestSessionUnicastFallback(t *testing.T) {
	fab, ctrl, key, sender, receivers := sessionFixture(t)
	sess, err := NewSession(fab, ctrl, key, sender, 64)
	if err != nil {
		t.Fatal(err)
	}
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	if err := sess.Publish([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	fab.Hypervisors[sender].RemoveSenderFlowAt(0, addr)
	if err := sess.Publish([]byte("degraded")); err != nil {
		t.Fatalf("publish without sender flow should degrade, got %v", err)
	}
	if sess.UnicastFallbacks != 1 {
		t.Fatalf("want 1 unicast fallback, got %d", sess.UnicastFallbacks)
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	if err := sess.Publish([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if sess.UnicastFallbacks != 1 {
		t.Fatalf("fallback fired after repair: %d", sess.UnicastFallbacks)
	}
	for _, h := range receivers {
		got := sess.Delivered(h)
		if len(got) != 3 {
			t.Fatalf("host %d delivered %d of 3", h, len(got))
		}
		for i, want := range []string{"pre", "degraded", "post"} {
			if string(got[i]) != want {
				t.Fatalf("host %d message %d = %q, want %q", h, i, got[i], want)
			}
		}
	}
}

func TestSessionUnknownGroup(t *testing.T) {
	fab, ctrl, _, sender, _ := sessionFixture(t)
	if _, err := NewSession(fab, ctrl, controller.GroupKey{Tenant: 99, Group: 99}, sender, 8); err == nil {
		t.Fatal("unknown group accepted")
	}
}
