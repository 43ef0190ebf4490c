package livefabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

func liveFixture(t *testing.T, enableINT bool) (*LiveFabric, *controller.Controller, controller.GroupKey, []topology.HostID) {
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
	key := controller.GroupKey{Tenant: 11, Group: 1}
	hosts := []topology.HostID{0, 1, 40, 48, 49, 63}
	members := make(map[topology.HostID]controller.Role)
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	lf := New(base)
	if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	return lf, ctrl, key, hosts
}

// collect drains a host channel until want frames arrive or timeout.
func collect(t *testing.T, lf *LiveFabric, h topology.HostID, want int, timeout time.Duration) []HostPacket {
	t.Helper()
	var got []HostPacket
	deadline := time.After(timeout)
	for len(got) < want {
		select {
		case p := <-lf.HostRx(h):
			got = append(got, p)
		case <-deadline:
			t.Fatalf("host %d: got %d of %d frames before timeout", h, len(got), want)
		}
	}
	return got
}

func TestLiveDelivery(t *testing.T) {
	lf, _, key, hosts := liveFixture(t, false)
	lf.Start()
	defer lf.Stop()
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}

	const n = 50
	for i := 0; i < n; i++ {
		if err := lf.Send(0, addr, []byte(fmt.Sprintf("tick %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hosts[1:] {
		got := collect(t, lf, h, n, 5*time.Second)
		seen := make(map[string]bool)
		for _, p := range got {
			if p.Addr != addr {
				t.Fatalf("host %d: wrong group %+v", h, p.Addr)
			}
			seen[string(p.Inner)] = true
		}
		if len(seen) != n {
			t.Fatalf("host %d: %d distinct messages, want %d", h, len(seen), n)
		}
	}
}

func TestLiveConcurrentSenders(t *testing.T) {
	lf, _, key, hosts := liveFixture(t, false)
	lf.Start()
	defer lf.Stop()
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}

	const perSender = 20
	errs := make(chan error, len(hosts))
	for _, sender := range hosts {
		go func(s topology.HostID) {
			for i := 0; i < perSender; i++ {
				if err := lf.Send(s, addr, []byte(fmt.Sprintf("%d/%d", s, i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(sender)
	}
	for range hosts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every member receives perSender messages from each OTHER member.
	want := perSender * (len(hosts) - 1)
	for _, h := range hosts {
		got := collect(t, lf, h, want, 10*time.Second)
		if len(got) != want {
			t.Fatalf("host %d: %d of %d", h, len(got), want)
		}
	}
}

func TestLiveINTTelemetry(t *testing.T) {
	lf, _, key, _ := liveFixture(t, true)
	lf.Start()
	defer lf.Stop()
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	if err := lf.Send(0, addr, []byte("traced")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, lf, 63, 1, 5*time.Second)
	if len(got[0].Telemetry) == 0 {
		t.Fatal("no telemetry on delivered frame")
	}
	// Host 63 is cross-pod from sender 0: expect >= 3 hops recorded.
	if len(got[0].Telemetry) < 3 {
		t.Fatalf("telemetry = %+v", got[0].Telemetry)
	}
}

func TestLiveStopIsIdempotent(t *testing.T) {
	lf, _, _, _ := liveFixture(t, false)
	lf.Start()
	lf.Start() // no-op
	lf.Stop()
	lf.Stop() // no-op
}

// TestLiveRestartAfterStop is the regression test for the lifecycle
// bug: Start→Stop→Start→Stop used to panic closing the stop channel
// twice and ran a fabric whose switches had already exited. The fabric
// is one-shot now.
func TestLiveRestartAfterStop(t *testing.T) {
	lf, _, key, _ := liveFixture(t, false)
	lf.Start()
	lf.Stop()
	lf.Start()
	lf.Stop()
	// No switch is running, so nothing is delivered.
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	_ = lf.Send(0, addr, []byte("after stop")) // queued or refused, never forwarded
	select {
	case p := <-lf.HostRx(1):
		t.Fatalf("stopped fabric delivered %q", p.Inner)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLiveConcurrentStartStop races Start and Stop from many
// goroutines (run under -race: the old started flag was a plain bool).
func TestLiveConcurrentStartStop(t *testing.T) {
	for i := 0; i < 20; i++ {
		lf, _, _, _ := liveFixture(t, false)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() { defer wg.Done(); lf.Start() }()
			go func() { defer wg.Done(); lf.Stop() }()
		}
		wg.Wait()
		lf.Stop()
	}
}

func TestLiveSendUnknownGroupFails(t *testing.T) {
	lf, _, _, _ := liveFixture(t, false)
	lf.Start()
	defer lf.Stop()
	err := lf.Send(0, dataplane.GroupAddr{VNI: 99, Group: 99}, []byte("x"))
	if err == nil {
		t.Fatal("send without flow accepted")
	}
}

func TestLiveBaseAccessor(t *testing.T) {
	lf, _, _, _ := liveFixture(t, false)
	if lf.Base() == nil || lf.Base().Topology() == nil {
		t.Fatal("base accessor broken")
	}
}

// BenchmarkLivePipeline measures end-to-end throughput of the
// goroutine fabric: one sender, Fig. 3-style group, real wire
// marshal/parse at every hop.
func BenchmarkLivePipeline(b *testing.B) {
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := fabric.New(topo, cfg.SRuleCapacity)
	base.SetFailures(ctrl.Failures())
	key := controller.GroupKey{Tenant: 1, Group: 1}
	hosts := []topology.HostID{0, 1, 40, 48, 49, 63}
	members := make(map[topology.HostID]controller.Role)
	members[0] = controller.RoleSender
	for _, h := range hosts[1:] {
		members[h] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		b.Fatal(err)
	}
	lf := New(base)
	if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
		b.Fatal(err)
	}
	lf.Start()
	defer lf.Stop()
	addr := dataplane.GroupAddr{VNI: 1, Group: 1}
	payload := make([]byte, 100)

	// Drain receivers concurrently so queues never fill.
	done := make(chan struct{})
	var received int64
	var wg sync.WaitGroup
	for _, h := range hosts[1:] {
		wg.Add(1)
		go func(h topology.HostID) {
			defer wg.Done()
			for {
				select {
				case <-lf.HostRx(h):
					atomic.AddInt64(&received, 1)
				case <-done:
					return
				}
			}
		}(h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lf.Send(0, addr, payload); err != nil {
			b.Fatal(err)
		}
	}
	want := int64(b.N * len(hosts[1:]))
	deadline := time.Now().Add(30 * time.Second)
	for atomic.LoadInt64(&received) < want {
		if time.Now().After(deadline) {
			b.Fatalf("%d of %d deliveries before timeout", atomic.LoadInt64(&received), want)
		}
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	close(done)
	wg.Wait()
	b.ReportMetric(float64(atomic.LoadInt64(&received))/float64(b.N), "deliveries/msg")
}
