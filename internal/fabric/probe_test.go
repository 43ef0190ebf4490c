package fabric_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"elmo/internal/chaos"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/livefabric"
	"elmo/internal/obs"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/trace"
	"elmo/internal/udpfabric"
)

// These tests sit outside package fabric so they can drive all three
// tiers of one base fabric with the real instruments (chaos and obs
// both import fabric). They pin the probe's promise: whichever tier
// carries a packet, every instrument hears about it exactly once.

type sendFunc func(sender topology.HostID, a dataplane.GroupAddr, inner []byte) error

// tier is one way of carrying packets over a base fabric. start
// attaches the tier's metrics bundle on reg and returns its send and
// stop; stop joins every device goroutine.
type tier struct {
	name  string
	start func(t *testing.T, base *fabric.Fabric, reg *telemetry.Registry) (sendFunc, func())
}

var (
	syncTier = tier{"sync", func(_ *testing.T, base *fabric.Fabric, reg *telemetry.Registry) (sendFunc, func()) {
		base.SetMetrics(fabric.NewMetrics(reg))
		return func(s topology.HostID, a dataplane.GroupAddr, inner []byte) error {
			_, err := base.Send(s, a, inner)
			return err
		}, func() {}
	}}
	// memoryTier is the wire engine over an in-process FIFO: marshaled
	// frames, no goroutines.
	memoryTier = tier{"memory", func(_ *testing.T, base *fabric.Fabric, reg *telemetry.Registry) (sendFunc, func()) {
		base.SetMetrics(fabric.NewMetrics(reg))
		type hop struct {
			l    dataplane.Link
			wire []byte
		}
		var queue []hop
		eng := fabric.NewWireEngine(base, 1024, func(l dataplane.Link, wire []byte) error {
			queue = append(queue, hop{l, append([]byte(nil), wire...)})
			return nil
		})
		return func(s topology.HostID, a dataplane.GroupAddr, inner []byte) error {
			err := eng.Send(s, a, inner)
			var sc fabric.WireScratch
			for len(queue) > 0 {
				h := queue[0]
				queue = queue[1:]
				eng.Step(h.l.ToTier, h.l.To, h.wire, &sc)
			}
			return err
		}, func() {}
	}}
	liveTier = tier{"livefabric", func(_ *testing.T, base *fabric.Fabric, reg *telemetry.Registry) (sendFunc, func()) {
		base.SetMetrics(fabric.NewMetrics(reg))
		lf := livefabric.New(base)
		lf.Start()
		return lf.Send, lf.Stop
	}}
	udpTier = tier{"udpfabric", func(t *testing.T, base *fabric.Fabric, reg *telemetry.Registry) (sendFunc, func()) {
		u, err := udpfabric.New(base)
		if err != nil {
			t.Fatal(err)
		}
		u.SetMetrics(udpfabric.NewMetrics(reg))
		u.Start()
		return u.Send, u.Close
	}}
)

func parityConfig() controller.Config {
	return controller.Config{
		MaxHeaderBytes: 325, SpineRuleLimit: 2, LeafRuleLimit: 30,
		KMaxSpine: 2, KMaxLeaf: 2, SRuleCapacity: 16,
	}
}

// hostArrivals counts the copies that have reached a hypervisor,
// accepted or filtered: on a healthy fabric every copy ends as one.
func hostArrivals(reg *telemetry.Registry) int {
	s := reg.Snapshot()
	return int(s.Get("elmo_host_delivered_total") + s.Get("elmo_host_filtered_total"))
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// readings is what the instruments of one tier's run recorded.
type readings struct {
	linkBytes, linkPkts []int64        // LinkTable totals by link index
	hops                map[string]int // "tier switch kind rule" hop events
	hosts               map[string]int // "host kind" host events
	counters            map[string]float64
}

// TestInstrumentParityAcrossTiers drives the 250 seeded groups of
// TestWireEngineMatchesSyncForwarder (every forwarding path: p-rules,
// s-rules, default rules, INT, a legacy leaf) over the sync forwarder,
// the wire engine in memory, livefabric and udpfabric — all on one base
// fabric with a recorder, an enabled ops plane, a registry and an
// attached-but-inactive injector — and requires every instrument to
// have recorded the same thing on each.
func TestInstrumentParityAcrossTiers(t *testing.T) {
	const groupsPerPath = 50
	paths := []struct {
		name   string
		cfg    func(*controller.Config)
		legacy bool
	}{
		{name: "p-rule", cfg: func(c *controller.Config) {}},
		{name: "s-rule", cfg: func(c *controller.Config) { c.LeafRuleLimit, c.SpineRuleLimit, c.SRuleCapacity = 1, 1, 64 }},
		{name: "default-rule", cfg: func(c *controller.Config) { c.LeafRuleLimit, c.SpineRuleLimit, c.SRuleCapacity = 0, 0, 0 }},
		{name: "INT", cfg: func(c *controller.Config) { c.EnableINT = true }},
		// All 50 groups are installed at once here, so the legacy leaf's
		// group table needs room for them.
		{name: "legacy-leaf", cfg: func(c *controller.Config) { c.LegacyLeaves, c.SRuleCapacity = []topology.LeafID{7}, 64 }, legacy: true},
	}
	for pi, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			topo := topology.MustNew(topology.PaperExample())
			cfg := parityConfig()
			p.cfg(&cfg)
			ctrl, err := controller.New(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := fabric.New(topo, cfg.SRuleCapacity)
			base.SetFailures(ctrl.Failures())
			if p.legacy {
				base.SetLegacyLeaf(7)
			}
			base.SetInjector(chaos.New(chaos.Config{Seed: 1, Drop: 0.5})) // armed, never enabled

			// arrivals[g] is how many copies group g's send lands on
			// hosts; the sync run learns it, the others wait for it.
			arrivals := make([]int, 0, groupsPerPath)
			run := func(tr tier) readings {
				rec := trace.New(trace.Config{Capacity: 1 << 16})
				rec.Enable(trace.CatHop, trace.CatHost, trace.CatFabric)
				plane := obs.New(obs.Options{Topology: topo, Registry: telemetry.NewRegistry()})
				plane.Enable()
				reg := telemetry.NewRegistry()
				base.SetTracer(rec)
				base.SetObserver(plane)

				// Install every group before the tier starts and remove
				// them after it stops: a socket carries no happens-before
				// the race detector can see, so the group tables must not
				// change under running device loops.
				rng := rand.New(rand.NewSource(int64(2019 + pi)))
				keys := make([]controller.GroupKey, groupsPerPath)
				senders := make([]int, groupsPerPath) // -1: every member is behind the legacy leaf
				for g := range keys {
					keys[g] = controller.GroupKey{Tenant: uint32(10 + pi), Group: uint32(g + 1)}
					hosts := rng.Perm(topo.NumHosts())[:2+rng.Intn(11)]
					members := make(map[topology.HostID]controller.Role, len(hosts))
					for _, h := range hosts {
						members[topology.HostID(h)] = controller.RoleBoth
					}
					if _, err := ctrl.CreateGroup(keys[g], members); err != nil {
						t.Fatal(err)
					}
					noPath, err := base.InstallGroupAt(0, ctrl, keys[g])
					if err != nil {
						t.Fatal(err)
					}
					senders[g] = -1
					if i := slices.IndexFunc(hosts, func(h int) bool { return !slices.Contains(noPath, topology.HostID(h)) }); i >= 0 {
						senders[g] = hosts[i]
					}
				}
				send, stop := tr.start(t, base, reg)
				for g, key := range keys {
					before := hostArrivals(reg)
					if senders[g] >= 0 {
						a := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
						if err := send(topology.HostID(senders[g]), a, []byte(fmt.Sprintf("%s group %d", p.name, g))); err != nil {
							t.Fatal(err)
						}
					}
					if tr.name == syncTier.name {
						arrivals = append(arrivals, hostArrivals(reg)-before)
					}
					// One send in flight at a time: wait for its copies.
					waitUntil(t, fmt.Sprintf("%s group %d arrivals", tr.name, g), func() bool {
						return hostArrivals(reg)-before >= arrivals[g]
					})
				}
				stop()
				for _, key := range keys {
					if err := base.UninstallGroupAt(0, ctrl, key); err != nil {
						t.Fatal(err)
					}
					if err := ctrl.RemoveGroup(key); err != nil {
						t.Fatal(err)
					}
				}

				r := readings{hops: map[string]int{}, hosts: map[string]int{}, counters: map[string]float64{}}
				n := plane.Links().NumLinks()
				r.linkBytes, r.linkPkts = make([]int64, n), make([]int64, n)
				for _, lr := range plane.Links().TopN(n, 0) {
					r.linkBytes[lr.ID], r.linkPkts[lr.ID] = lr.Bytes, lr.Packets
				}
				for _, ev := range rec.Snapshot() {
					switch ev.Cat {
					case trace.CatHop:
						r.hops[fmt.Sprintf("%s %d %s %s", ev.Tier, ev.Switch, ev.Kind, ev.Rule)]++
					case trace.CatHost:
						r.hosts[fmt.Sprintf("%d %s", ev.Switch, ev.Kind)]++
					default:
						t.Errorf("%s: unexpected fabric event %+v", tr.name, ev)
					}
				}
				for k, v := range reg.Snapshot() {
					if strings.HasPrefix(k, "elmo_dataplane_") || strings.HasPrefix(k, "elmo_host_") {
						r.counters[k] = v
					}
				}
				return r
			}

			want := run(syncTier)
			if len(want.hops) == 0 || len(want.hosts) == 0 || want.counters["elmo_host_delivered_total"] == 0 ||
				!slices.ContainsFunc(want.linkBytes, func(b int64) bool { return b > 0 }) {
				t.Fatalf("sync run left an instrument empty: %d hop keys, %d host keys, counters %v",
					len(want.hops), len(want.hosts), want.counters)
			}
			for _, tr := range []tier{memoryTier, liveTier, udpTier} {
				got := run(tr)
				if !reflect.DeepEqual(got.linkBytes, want.linkBytes) || !reflect.DeepEqual(got.linkPkts, want.linkPkts) {
					t.Errorf("%s: per-link totals differ from sync", tr.name)
				}
				if !reflect.DeepEqual(got.hops, want.hops) {
					t.Errorf("%s: hop events differ from sync:\n got %v\nwant %v", tr.name, got.hops, want.hops)
				}
				if !reflect.DeepEqual(got.hosts, want.hosts) {
					t.Errorf("%s: host events differ from sync:\n got %v\nwant %v", tr.name, got.hosts, want.hosts)
				}
				if !reflect.DeepEqual(got.counters, want.counters) {
					t.Errorf("%s: counters differ from sync:\n got %v\nwant %v", tr.name, got.counters, want.counters)
				}
			}
		})
	}
}

// TestFaultVerdictsCountedOnEveryTier runs a seeded injector on each
// tier and requires elmo_fabric_fault_verdicts_total to equal the
// injector's own count of what it fired: every verdict is counted, on
// the wire tiers too, and none twice.
func TestFaultVerdictsCountedOnEveryTier(t *testing.T) {
	for _, tr := range []tier{syncTier, liveTier, udpTier} {
		t.Run(tr.name, func(t *testing.T) {
			topo := topology.MustNew(topology.PaperExample())
			cfg := parityConfig()
			ctrl, err := controller.New(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := fabric.New(topo, cfg.SRuleCapacity)
			base.SetFailures(ctrl.Failures())
			key := controller.GroupKey{Tenant: 3, Group: 1}
			members := make(map[topology.HostID]controller.Role)
			for h := 0; h < topo.NumHosts(); h += 3 {
				members[topology.HostID(h)] = controller.RoleBoth
			}
			if _, err := ctrl.CreateGroup(key, members); err != nil {
				t.Fatal(err)
			}
			if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
				t.Fatal(err)
			}
			inj := chaos.New(chaos.Config{Seed: 42, Drop: 0.05, Duplicate: 0.05, Corrupt: 0.05, Reorder: 0.1})
			base.SetInjector(inj)
			reg := telemetry.NewRegistry()
			send, stop := tr.start(t, base, reg)
			inj.Enable()
			a := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
			for i := 0; i < 100; i++ {
				if err := send(0, a, []byte("chaos")); err != nil {
					t.Fatal(err)
				}
			}
			// Quiet once no crossing has happened for a while (injected
			// delays are a few milliseconds).
			last, still := int64(-1), 0
			waitUntil(t, "crossings to stop", func() bool {
				time.Sleep(10 * time.Millisecond)
				if c := inj.Stats().Crossings; c != last {
					last, still = c, 0
				} else {
					still++
				}
				return still >= 5
			})
			stop()

			st, snap := inj.Stats(), reg.Snapshot()
			for verdict, want := range map[string]int64{"drop": st.Drops, "duplicate": st.Dups, "corrupt": st.Corrupts, "delay": st.Delays} {
				got := snap.Get(fmt.Sprintf(`elmo_fabric_fault_verdicts_total{verdict=%q}`, verdict))
				if want == 0 || int64(got) != want {
					t.Errorf("verdict %s: counter %v, injector fired %d (want equal and non-zero)", verdict, got, want)
				}
			}
		})
	}
}
