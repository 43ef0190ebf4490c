package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// wireHarness is an in-memory transport for the wire engine: Transmit
// appends the frame to a FIFO, run steps the addressed devices until
// the FIFO is empty. No goroutines, no sockets, so a send's outcome is
// as deterministic as Fabric.Send's. It attaches metrics to the fabric
// so the engine's unparseable frames and full host queues are counted.
type wireHarness struct {
	eng   *WireEngine
	queue []wireHop
	// links, linkBytes and hops mirror Delivery's accounting.
	links, linkBytes, hops int
	// malformed and hostDrops are the engine's wire counters.
	malformed, hostDrops *telemetry.Counter
}

type wireHop struct {
	l    dataplane.Link
	wire []byte
}

func newWireHarness(f *Fabric) *wireHarness {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	m.WireMalformed = reg.Counter("elmo_wire_malformed_total", "Undecodable frames.")
	m.HostQueueDrops = reg.Counter("elmo_wire_host_queue_drops_total", "Frames dropped at full host queues.")
	f.SetMetrics(m)
	h := &wireHarness{malformed: m.WireMalformed, hostDrops: m.HostQueueDrops}
	h.eng = NewWireEngine(f, 16, func(l dataplane.Link, wire []byte) error {
		h.links++
		h.linkBytes += len(wire)
		h.queue = append(h.queue, wireHop{l, append([]byte(nil), wire...)})
		return nil
	})
	return h
}

// send injects one frame and forwards it to quiescence, returning what
// every host's delivery channel received.
func (h *wireHarness) send(t *testing.T, sender topology.HostID, a dataplane.GroupAddr, inner []byte) map[topology.HostID][]HostPacket {
	t.Helper()
	h.links, h.linkBytes, h.hops = 0, 0, 0
	if err := h.eng.Send(sender, a, inner); err != nil {
		t.Fatal(err)
	}
	var sc WireScratch
	for len(h.queue) > 0 {
		hop := h.queue[0]
		h.queue = h.queue[1:]
		if hop.l.ToTier != dataplane.LinkHost {
			h.hops++
		}
		h.eng.Step(hop.l.ToTier, hop.l.To, hop.wire, &sc)
	}
	got := make(map[topology.HostID][]HostPacket)
	for host := range h.eng.hostRx {
		for len(h.eng.hostRx[host]) > 0 {
			got[topology.HostID(host)] = append(got[topology.HostID(host)], <-h.eng.hostRx[host])
		}
	}
	return got
}

// TestWireEngineMatchesSyncForwarder is the cross-tier parity check:
// for seeded groups on every forwarding path (p-rules, s-rules, default
// rules, INT stamping, a legacy leaf) the wire engine delivers the same
// inner frames and telemetry to the same hosts over the same number of
// links, hops and bytes as Fabric.Send on the same switches.
func TestWireEngineMatchesSyncForwarder(t *testing.T) {
	const groupsPerPath = 50 // x5 paths = 250 groups
	type path struct {
		name   string
		cfg    func(*controller.Config)
		legacy bool
		// used reports, after the sends, that the path was exercised.
		used func(f *Fabric, telemetry int) bool
	}
	sum := func(sws []*dataplane.NetworkSwitch, pick func(*dataplane.Stats) int) (n int) {
		for _, sw := range sws {
			n += pick(sw.Stats())
		}
		return n
	}
	paths := []path{
		{name: "p-rule", cfg: func(c *controller.Config) {},
			used: func(f *Fabric, _ int) bool {
				return sum(f.Leaves, func(s *dataplane.Stats) int { return s.PRuleHits }) > 0
			}},
		{name: "s-rule", cfg: func(c *controller.Config) { c.LeafRuleLimit, c.SpineRuleLimit, c.SRuleCapacity = 1, 1, 64 },
			used: func(f *Fabric, _ int) bool {
				return sum(f.Leaves, func(s *dataplane.Stats) int { return s.SRuleHits }) > 0 &&
					sum(f.Spines, func(s *dataplane.Stats) int { return s.SRuleHits }) > 0
			}},
		{name: "default-rule", cfg: func(c *controller.Config) { c.LeafRuleLimit, c.SpineRuleLimit, c.SRuleCapacity = 0, 0, 0 },
			used: func(f *Fabric, _ int) bool {
				return sum(f.Leaves, func(s *dataplane.Stats) int { return s.Defaults }) > 0
			}},
		{name: "INT", cfg: func(c *controller.Config) { c.EnableINT = true },
			used: func(_ *Fabric, telemetry int) bool { return telemetry > 0 }},
		{name: "legacy-leaf", cfg: func(c *controller.Config) { c.LegacyLeaves = []topology.LeafID{7} }, legacy: true,
			used: func(f *Fabric, _ int) bool { return f.Leaves[7].Stats().SRuleHits > 0 }},
	}
	for pi, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			topo := paperTopo()
			cfg := testConfig(0)
			p.cfg(&cfg)
			ctrl, f := setup(t, topo, cfg)
			if p.legacy {
				f.SetLegacyLeaf(7)
			}
			h := newWireHarness(f)
			rng := rand.New(rand.NewSource(int64(2019 + pi)))
			telemetry := 0
			for g := 0; g < groupsPerPath; g++ {
				key := controller.GroupKey{Tenant: uint32(10 + pi), Group: uint32(g + 1)}
				a := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
				hosts := rng.Perm(topo.NumHosts())[:2+rng.Intn(11)]
				members := make(map[topology.HostID]controller.Role, len(hosts))
				for _, host := range hosts {
					members[topology.HostID(host)] = controller.RoleBoth
				}
				if _, err := ctrl.CreateGroup(key, members); err != nil {
					t.Fatal(err)
				}
				noPath, err := f.InstallGroupAt(0, ctrl, key)
				if err != nil {
					t.Fatal(err)
				}
				// Senders behind the legacy leaf cannot source-route.
				sender := topology.HostID(-1)
				for _, host := range hosts {
					if !slices.Contains(noPath, topology.HostID(host)) {
						sender = topology.HostID(host)
						break
					}
				}
				if sender >= 0 {
					inner := []byte(fmt.Sprintf("%s group %d", p.name, g))
					want, err := f.Send(sender, a, inner)
					if err != nil {
						t.Fatal(err)
					}
					got := h.send(t, sender, a, inner)
					telemetry += len(want.Telemetry)
					if want.Duplicates != 0 || want.Lost != 0 {
						t.Fatalf("group %d: sync delivery %s", g, want)
					}
					if h.links != want.Links || h.linkBytes != want.LinkBytes || h.hops != want.Hops {
						t.Fatalf("group %d: wire links=%d bytes=%d hops=%d, sync links=%d bytes=%d hops=%d",
							g, h.links, h.linkBytes, h.hops, want.Links, want.LinkBytes, want.Hops)
					}
					if len(got) != len(want.Received) {
						t.Fatalf("group %d: wire reached %d hosts, sync %d", g, len(got), len(want.Received))
					}
					for host, frame := range want.Received {
						pkts := got[host]
						if len(pkts) != 1 || pkts[0].Addr != a || !bytes.Equal(pkts[0].Inner, frame) {
							t.Fatalf("group %d host %d: wire delivered %+v, sync %q", g, host, pkts, frame)
						}
						if tel := want.Telemetry[host]; len(tel)+len(pkts[0].Telemetry) > 0 && !reflect.DeepEqual(pkts[0].Telemetry, tel) {
							t.Fatalf("group %d host %d: wire telemetry %+v, sync %+v", g, host, pkts[0].Telemetry, tel)
						}
					}
				}
				if err := f.UninstallGroupAt(0, ctrl, key); err != nil {
					t.Fatal(err)
				}
				if err := ctrl.RemoveGroup(key); err != nil {
					t.Fatal(err)
				}
			}
			if !p.used(f, telemetry) {
				t.Fatalf("no send exercised the %s path", p.name)
			}
			if h.malformed.Value() != 0 || h.hostDrops.Value() != 0 {
				t.Fatalf("malformed=%d hostDrops=%d", h.malformed.Value(), h.hostDrops.Value())
			}
		})
	}
}

// TestWireEngineLifecycleIsOneShot: spawn runs once, never after Stop,
// and Stop waits for every Go goroutine.
func TestWireEngineLifecycleIsOneShot(t *testing.T) {
	newEngine := func() *WireEngine {
		return NewWireEngine(New(paperTopo(), 0), 1, func(dataplane.Link, []byte) error { return nil })
	}
	e := newEngine()
	spawned, exited := 0, false
	spawn := func() {
		spawned++
		e.Go(func() { <-e.Stopped(); exited = true })
	}
	e.Start(spawn)
	e.Start(spawn)
	e.Stop(nil)
	if !exited {
		t.Fatal("Stop returned before the device loop exited")
	}
	e.Start(spawn) // a stopped engine never restarts
	e.Stop(nil)
	if spawned != 1 {
		t.Fatalf("spawn ran %d times, want 1", spawned)
	}

	// Stop before Start: the engine stays down.
	e = newEngine()
	e.Stop(nil)
	e.Start(func() { t.Error("spawn ran on a stopped engine") })
}

// TestWireEngineConcurrentStartStop races Start against Stop; run under
// -race it checks the launches are ordered against the wait.
func TestWireEngineConcurrentStartStop(t *testing.T) {
	for i := 0; i < 50; i++ {
		e := NewWireEngine(New(paperTopo(), 0), 1, func(dataplane.Link, []byte) error { return nil })
		var unblocked int
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				e.Start(func() {
					for n := 0; n < 4; n++ {
						e.Go(func() { <-e.Stopped() })
					}
				})
			}()
			go func() {
				defer wg.Done()
				e.Stop(func() { unblocked++ })
			}()
		}
		wg.Wait()
		if unblocked != 1 {
			t.Fatalf("unblock ran %d times, want 1", unblocked)
		}
	}
}
