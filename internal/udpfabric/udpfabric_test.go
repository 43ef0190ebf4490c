package udpfabric

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/header"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

func udpFixture(t *testing.T, enableINT bool) (*UDPFabric, controller.GroupKey, []topology.HostID) {
	t.Helper()
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(0)
	cfg.EnableINT = enableINT
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := fabric.New(topo, cfg.SRuleCapacity)
	base.SetFailures(ctrl.Failures())
	key := controller.GroupKey{Tenant: 21, Group: 1}
	hosts := []topology.HostID{0, 1, 40, 48, 63}
	members := make(map[topology.HostID]controller.Role)
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	u, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	u.SetMetrics(NewMetrics(telemetry.NewRegistry()))
	u.Start()
	return u, key, hosts
}

func TestDeliveryOverRealUDP(t *testing.T) {
	u, key, hosts := udpFixture(t, false)
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	const n = 25
	for i := 0; i < n; i++ {
		if err := u.Send(0, addr, []byte(fmt.Sprintf("udp %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hosts[1:] {
		got, err := u.WaitForDeliveries(h, n, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range got {
			if p.Addr != addr {
				t.Fatalf("host %d: wrong group %+v", h, p.Addr)
			}
			seen[string(p.Inner)] = true
		}
		if len(seen) != n {
			t.Fatalf("host %d: %d distinct of %d", h, len(seen), n)
		}
	}
	if m := u.metrics.Fabric; m.WireMalformed.Value() != 0 || m.HostQueueDrops.Value() != 0 {
		t.Fatalf("malformed=%d dropped=%d", m.WireMalformed.Value(), m.HostQueueDrops.Value())
	}
}

func TestINTOverRealUDP(t *testing.T) {
	u, key, _ := udpFixture(t, true)
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	if err := u.Send(0, addr, []byte("trace")); err != nil {
		t.Fatal(err)
	}
	got, err := u.WaitForDeliveries(63, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	path := got[0].Telemetry
	if len(path) < 3 {
		t.Fatalf("cross-pod path too short: %+v", path)
	}
	if path[0].Tier != header.INTTierLeaf {
		t.Fatalf("path does not start at a leaf: %+v", path)
	}
}

func TestHostAddrStable(t *testing.T) {
	u, _, _ := udpFixture(t, false)
	hosts := u.addr[dataplane.LinkHost]
	if a := hosts[5]; a.Port == 0 || a.String() != u.conn[dataplane.LinkHost][5].LocalAddr().String() {
		t.Fatalf("host addr %v is not its socket's %v", a, u.conn[dataplane.LinkHost][5].LocalAddr())
	}
	if hosts[6].Port == hosts[5].Port {
		t.Fatal("distinct hosts share a port")
	}
}

func TestGarbageDatagramCounted(t *testing.T) {
	u, _, _ := udpFixture(t, false)
	// Fire a garbage datagram straight at a leaf socket.
	conn := u.conn[dataplane.LinkHost][3]
	if _, err := conn.WriteToUDP([]byte{0xde, 0xad}, u.addr[dataplane.LinkLeaf][0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if u.metrics.Fabric.WireMalformed.Value() == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("malformed datagram not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSendAccountingCountsSuccessesOnly(t *testing.T) {
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := fabric.New(topo, cfg.SRuleCapacity)
	key := controller.GroupKey{Tenant: 7, Group: 2}
	if _, err := ctrl.CreateGroup(key, map[topology.HostID]controller.Role{
		0: controller.RoleBoth, 1: controller.RoleBoth,
	}); err != nil {
		t.Fatal(err)
	}
	u, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	u.SetMetrics(NewMetrics(reg))
	// No Start: nothing else writes, so counters are fully deterministic.
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}

	if err := u.Send(0, addr, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got := u.metrics.sent.Value(); got != 1 {
		t.Fatalf("sent after success = %d, want 1", got)
	}
	if got := u.metrics.sendErrors.Value(); got != 0 {
		t.Fatalf("sendErrors after success = %d, want 0", got)
	}

	// Closing the sender's socket makes the next write fail; the failure
	// must land in the send-error count, never in the sent totals.
	u.conn[dataplane.LinkHost][0].Close()
	if err := u.Send(0, addr, []byte("broken")); err == nil {
		t.Fatal("Send on closed socket did not error")
	}
	if got := u.metrics.sent.Value(); got != 1 {
		t.Fatalf("sent after failure = %d, want 1 (failure must not count)", got)
	}
	if got := u.metrics.sendErrors.Value(); got != 1 {
		t.Fatalf("sendErrors after failure = %d, want 1", got)
	}
}

func TestStartIsIdempotentAndConcurrencySafe(t *testing.T) {
	u, key, hosts := udpFixture(t, false) // fixture already called Start once
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u.Start()
		}()
	}
	wg.Wait()
	u.Start()
	// The fabric must still work normally: one reader set, every member
	// sees each frame exactly once.
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	const n = 10
	for i := 0; i < n; i++ {
		if err := u.Send(0, addr, []byte(fmt.Sprintf("idem %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hosts[1:] {
		got, err := u.WaitForDeliveries(h, n, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range got {
			seen[string(p.Inner)] = true
		}
		if len(seen) != n {
			t.Fatalf("host %d: %d distinct of %d", h, len(seen), n)
		}
	}
}

// TestBurstNeitherLostNorCorrupted fires a burst that queues up behind
// every reader: each datagram is read into the reader's one buffer, and
// none may be lost, or overwritten before its copies were sent on.
func TestBurstNeitherLostNorCorrupted(t *testing.T) {
	u, key, hosts := udpFixture(t, false)
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	const n = 128
	for i := 0; i < n; i++ {
		if err := u.Send(0, addr, []byte(fmt.Sprintf("burst %04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hosts[1:] {
		got, err := u.WaitForDeliveries(h, n, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range got {
			seen[string(p.Inner)] = true
		}
		if len(seen) != n {
			t.Fatalf("host %d: %d distinct of %d (read buffer reused too early?)", h, len(seen), n)
		}
	}
}
