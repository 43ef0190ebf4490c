package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/livefabric"
	"elmo/internal/obs"
	"elmo/internal/raceflag"
	"elmo/internal/reliable"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/trace"
	"elmo/internal/udpfabric"
)

// ambientChaos is the fault mix every soak runs under.
var ambientChaos = Config{
	Drop: 0.05, Duplicate: 0.05, Corrupt: 0.03, Reorder: 0.08,
}

// TestChaosSoakSyncFabric is the full robustness loop on the
// synchronous tier: ambient drop/dup/corrupt/reorder plus a scripted
// spine flap, a reliable session whose control plane also loses
// frames, and a monitor that must *detect* the flap from probe loss,
// steer the flow around it, and converge the encoding after repair.
func TestChaosSoakSyncFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	cfg := ambientChaos
	cfg.Seed = 1009
	_, ctrl, fab, inj, key := chaosFixture(t, cfg)
	preWire, err := ctrl.SenderStream(key, fixtureSender)
	if err != nil {
		t.Fatal(err)
	}

	mon, err := NewMonitor(ctrl, fab, MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch(key, fixtureSender)

	sess, err := reliable.NewSession(fab, ctrl, key, fixtureSender, 512)
	if err != nil {
		t.Fatal(err)
	}
	sess.ControlLoss = func(uint8, topology.HostID, topology.HostID) bool {
		return inj.Chance(0.10)
	}

	inj.LoadPlan(FaultPlan{
		{Step: 30, Tier: dataplane.LinkSpine, Switch: 0, Loss: 1.0},
		{Step: 70, Tier: dataplane.LinkSpine, Switch: 0, Loss: 0},
	})
	inj.Enable()

	const n = 110
	var transitions []Transition
	for i := 0; i < n; i++ {
		inj.Step()
		transitions = append(transitions, mon.ProbeRound()...)
		if err := sess.Publish([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	// The flap must have been detected and reversed, not scripted into
	// the controller: both verdicts came from probe loss.
	var sawFail, sawRepair bool
	for _, tr := range transitions {
		if tr.Tier == dataplane.LinkSpine && tr.ID == 0 {
			if tr.Down {
				sawFail = true
			} else if sawFail {
				sawRepair = true
			}
		}
	}
	if !sawFail || !sawRepair {
		t.Fatalf("flap not detected: transitions=%+v", transitions)
	}
	if ctrl.Failures().SpineFailed(0) {
		t.Fatal("spine 0 still declared failed after repair")
	}

	// Eventual 100% in-order delivery despite everything.
	for _, h := range fixtureReceivers {
		got := sess.Delivered(h)
		if len(got) != n {
			t.Fatalf("host %d delivered %d of %d (NAKs=%d retries=%d corrupt=%d)",
				h, len(got), n, sess.NAKs, sess.NAKRetries, sess.CorruptFrames)
		}
		for i, p := range got {
			if string(p) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("host %d out of order at %d: %q", h, i, p)
			}
		}
	}

	// The ambient mix actually fired every fault class.
	st := inj.Stats()
	if st.Drops == 0 || st.Dups == 0 || st.Corrupts == 0 || st.Delays == 0 {
		t.Fatalf("ambient chaos incomplete: %+v", st)
	}
	if sess.NAKs == 0 {
		t.Fatal("soak never exercised NAK repair")
	}

	// Post-repair the sender encoding converges to the pre-failure
	// bytes.
	postWire, err := ctrl.SenderStream(key, fixtureSender)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preWire, postWire) {
		t.Fatalf("post-repair encoding diverged:\npre  %x\npost %x", preWire, postWire)
	}
}

// sealPayload / openPayload wrap soak payloads with an application
// CRC: on the concurrent tiers chaos corruption can flip payload
// bytes (not just Elmo header bytes), and a real receiver stack
// discards those frames as loss and NAKs the gap.
func sealPayload(seq int, body string) []byte {
	data := []byte(fmt.Sprintf("%s-%d", body, seq))
	out := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(out, crc32.ChecksumIEEE(data))
	copy(out[4:], data)
	return out
}

func openPayload(p []byte) (string, bool) {
	if len(p) < 4 {
		return "", false
	}
	if crc32.ChecksumIEEE(p[4:]) != binary.BigEndian.Uint32(p) {
		return "", false
	}
	return string(p[4:]), true
}

// concurrentSoak drives reliable Sender/Receiver framing over a
// concurrent tier (live goroutine fabric or real UDP): n sealed
// frames go out through the chaotic fabric, receivers integrity-check
// what arrives, and a lossless out-of-band NAK/RDATA loop (the
// unicast control plane) repairs the gaps. Every receiver must end at
// 100% in-order delivery.
func concurrentSoak(t *testing.T, n int, send func(frame []byte) error,
	collect func(h topology.HostID) [][]byte, mid func(i int)) {
	t.Helper()
	// Window n+1: the sender window evicts seq-WindowSize+1 on each
	// send, so exactly n would make seq 0 unrecoverable at the tail.
	s := reliable.NewSender(n + 1)
	recvs := make(map[topology.HostID]*reliable.Receiver)
	delivered := make(map[topology.HostID][]string)
	for _, h := range fixtureReceivers {
		recvs[h] = reliable.NewReceiver(n + 1)
	}

	for i := 0; i < n; i++ {
		mid(i)
		frame, _, err := s.Next(sealPayload(i, "soak"))
		if err != nil {
			t.Fatal(err)
		}
		if err := send(frame); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	corrupted := 0
	deliver := func(h topology.HostID, out [][]byte) {
		for _, p := range out {
			body, ok := openPayload(p)
			if !ok {
				t.Fatalf("host %d: integrity failure escaped the receive check", h)
			}
			delivered[h] = append(delivered[h], body)
		}
	}
	for _, h := range fixtureReceivers {
		r := recvs[h]
		for _, frame := range collect(h) {
			m, err := reliable.Unmarshal(frame)
			if err != nil || m.Type != reliable.TypeData {
				corrupted++ // corrupted past framing: counts as loss
				continue
			}
			// The sealed body names its own sequence, so the check also
			// catches a flip in the frame's sequence field.
			if body, ok := openPayload(m.Payload); !ok || body != fmt.Sprintf("soak-%d", m.Seq) {
				corrupted++ // bit-flip: discard, NAK recovers it
				continue
			}
			out, _, err := r.Handle(frame)
			if err != nil {
				corrupted++
				continue
			}
			deliver(h, out)
		}
		// Out-of-band repair: NAK the full remaining gap until the
		// receiver has consumed every sequence.
		for attempt := 0; r.Next() < uint32(n); attempt++ {
			if attempt > n {
				t.Fatalf("host %d: repair did not converge (next=%d)", h, r.Next())
			}
			nak := &reliable.Message{Type: reliable.TypeNAK,
				Ranges: []reliable.Range{{First: r.Next(), Last: uint32(n - 1)}}}
			repairs, err := s.HandleNAK(nak)
			if err != nil {
				t.Fatal(err)
			}
			if len(repairs) == 0 {
				t.Fatalf("host %d: window evicted at seq %d", h, r.Next())
			}
			for _, rd := range repairs {
				out, _, err := r.Handle(rd)
				if err != nil {
					t.Fatal(err)
				}
				deliver(h, out)
			}
		}
	}

	for _, h := range fixtureReceivers {
		got := delivered[h]
		if len(got) != n {
			t.Fatalf("host %d delivered %d of %d (corrupted=%d)", h, len(got), n, corrupted)
		}
		for i, body := range got {
			if want := fmt.Sprintf("soak-%d", i); body != want {
				t.Fatalf("host %d out of order at %d: %q", h, i, body)
			}
		}
	}
}

// drainQuiet reads a host channel until it has been silent for the
// quiet window — longer than the injector's max reorder delay, so
// held-back frames are included.
func drainQuiet[T any](rx <-chan T, inner func(T) []byte, quiet time.Duration) [][]byte {
	var out [][]byte
	timer := time.NewTimer(quiet)
	defer timer.Stop()
	for {
		select {
		case p := <-rx:
			out = append(out, inner(p))
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(quiet)
		case <-timer.C:
			return out
		}
	}
}

// concurrentGroup builds controller + base fabric + group for the
// concurrent-tier soaks and returns them with an attached injector.
func concurrentGroup(t *testing.T, cfg Config) (*controller.Controller, *fabric.Fabric, *Injector, dataplane.GroupAddr, controller.GroupKey) {
	t.Helper()
	topo := topology.MustNew(topology.PaperExample())
	ccfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	base := fabric.New(topo, ccfg.SRuleCapacity)
	base.SetFailures(ctrl.Failures())
	inj := New(cfg)
	key := controller.GroupKey{Tenant: 9, Group: 1}
	members := map[topology.HostID]controller.Role{fixtureSender: controller.RoleSender}
	for _, h := range fixtureReceivers {
		members[h] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	return ctrl, base, inj, dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}, key
}

// TestChaosSoakLiveFabric: the goroutine tier under the ambient mix
// plus a gray spine flap (75% loss) injected mid-stream.
func TestChaosSoakLiveFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	cfg := ambientChaos
	cfg.Seed = 2017
	ctrl, base, inj, addr, key := concurrentGroup(t, cfg)
	base.SetInjector(inj)
	lf := livefabric.New(base)
	if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	lf.Start()
	defer lf.Stop()
	inj.Enable()

	const n = 120
	concurrentSoak(t, n,
		func(frame []byte) error { return lf.Send(fixtureSender, addr, frame) },
		func(h topology.HostID) [][]byte {
			return drainQuiet(lf.HostRx(h), func(p livefabric.HostPacket) []byte { return p.Inner }, 150*time.Millisecond)
		},
		func(i int) {
			switch i {
			case n / 3:
				inj.SetSwitchLoss(dataplane.LinkSpine, 0, 0.75)
			case 2 * n / 3:
				inj.SetSwitchLoss(dataplane.LinkSpine, 0, 0)
			}
		})

	if st := inj.Stats(); st.Drops == 0 || st.Dups == 0 || st.Corrupts == 0 || st.Delays == 0 {
		t.Fatalf("ambient chaos incomplete on live tier: %+v", st)
	}
}

// TestChaosSoakUDPFabric: the same soak over real UDP sockets.
func TestChaosSoakUDPFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	cfg := Config{Drop: 0.03, Duplicate: 0.03, Corrupt: 0.02, Reorder: 0.05, Seed: 3023}
	ctrl, base, inj, addr, key := concurrentGroup(t, cfg)
	u, err := udpfabric.New(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	base.SetInjector(inj)
	if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	u.Start()
	inj.Enable()

	const n = 60
	concurrentSoak(t, n,
		func(frame []byte) error { return u.Send(fixtureSender, addr, frame) },
		func(h topology.HostID) [][]byte {
			return drainQuiet(u.HostRx(h), func(p udpfabric.HostPacket) []byte { return p.Inner }, 200*time.Millisecond)
		},
		func(i int) {
			switch i {
			case n / 3:
				inj.SetSwitchLoss(dataplane.LinkSpine, 1, 0.75)
			case 2 * n / 3:
				inj.SetSwitchLoss(dataplane.LinkSpine, 1, 0)
			}
		})

	if st := inj.Stats(); st.Drops == 0 {
		t.Fatalf("ambient chaos never fired on UDP tier: %+v", st)
	}
}

// TestChaosDisabledAllocParity is the acceptance bar for the disabled
// path: a fabric with a disabled injector attached allocates exactly
// as much per multicast send as a fabric with no injector at all — and
// so does one with all four probe instruments attached and none of
// them on (telemetry has no off switch: its counters just count).
func TestChaosDisabledAllocParity(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	build := func(attach, all bool) *fabric.Fabric {
		topo := topology.MustNew(topology.PaperExample())
		ccfg := controller.PaperConfig(0)
		ctrl, err := controller.New(topo, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		fab := fabric.New(topo, ccfg.SRuleCapacity)
		fab.SetFailures(ctrl.Failures())
		if attach {
			fab.SetInjector(New(Config{Seed: 1, Drop: 0.5})) // armed but never enabled
		}
		if all {
			fab.SetTracer(trace.New(trace.Config{}))
			fab.SetObserver(obs.New(obs.Options{Topology: topo, Registry: telemetry.NewRegistry()}))
			fab.SetMetrics(fabric.NewMetrics(telemetry.NewRegistry()))
		}
		key := controller.GroupKey{Tenant: 9, Group: 1}
		members := map[topology.HostID]controller.Role{fixtureSender: controller.RoleSender}
		for _, h := range fixtureReceivers {
			members[h] = controller.RoleReceiver
		}
		if _, err := ctrl.CreateGroup(key, members); err != nil {
			t.Fatal(err)
		}
		if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
			t.Fatal(err)
		}
		return fab
	}
	send := func(f *fabric.Fabric) func() {
		addr := dataplane.GroupAddr{VNI: 9, Group: 1}
		payload := []byte("alloc probe")
		return func() {
			if _, err := f.Send(fixtureSender, addr, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	baseline := testing.AllocsPerRun(200, send(build(false, false)))
	withDisabled := testing.AllocsPerRun(200, send(build(true, false)))
	if withDisabled != baseline {
		t.Fatalf("disabled injector changed allocations: %.1f → %.1f per send",
			baseline, withDisabled)
	}
	allDisabled := testing.AllocsPerRun(200, send(build(true, true)))
	if allDisabled != baseline {
		t.Fatalf("four disabled instruments changed allocations: %.1f → %.1f per send",
			baseline, allDisabled)
	}
}

// BenchmarkForwardChaosOff measures the forward path with a disabled
// injector attached — the budget is one nil check plus one atomic
// load per crossing and zero extra allocations.
func BenchmarkForwardChaosOff(b *testing.B) {
	topo := topology.MustNew(topology.PaperExample())
	ccfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, ccfg)
	if err != nil {
		b.Fatal(err)
	}
	fab := fabric.New(topo, ccfg.SRuleCapacity)
	fab.SetFailures(ctrl.Failures())
	fab.SetInjector(New(Config{Seed: 1, Drop: 0.5})) // attached, never enabled
	key := controller.GroupKey{Tenant: 9, Group: 1}
	members := map[topology.HostID]controller.Role{fixtureSender: controller.RoleSender}
	for _, h := range fixtureReceivers {
		members[h] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		b.Fatal(err)
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		b.Fatal(err)
	}
	addr := dataplane.GroupAddr{VNI: 9, Group: 1}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fab.Send(fixtureSender, addr, payload); err != nil {
			b.Fatal(err)
		}
	}
}
