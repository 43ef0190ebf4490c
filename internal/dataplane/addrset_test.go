package dataplane

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"elmo/internal/header"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// checkAgainst holds the set to the map it replaced: same membership for
// every address of the universe, and the same sorted listing.
func checkAgainst(t *testing.T, s *addrSet, model map[GroupAddr]bool, universe []GroupAddr, step int) {
	t.Helper()
	for _, a := range universe {
		if s.has(a) != model[a] {
			t.Fatalf("step %d: has(%+v) = %v, model says %v", step, a, s.has(a), model[a])
		}
	}
	got, want := s.sorted(), sortedAddrs(model)
	if len(got) != len(want) {
		t.Fatalf("step %d: sorted() lists %d addresses, model holds %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: sorted()[%d] = %+v, want %+v", step, i, got[i], want[i])
		}
	}
	if 4*s.n > 3*len(s.slots) {
		t.Fatalf("step %d: %d keys in %d slots, over 3/4", step, s.n, len(s.slots))
	}
}

// collidingAddrs returns n addresses that share the given home slot in a
// table of the given size.
func collidingAddrs(n, slots, home int) []GroupAddr {
	var sized addrSet
	for len(sized.slots) < slots {
		sized.grow()
	}
	var out []GroupAddr
	for g := uint32(1); len(out) < n; g++ {
		a := GroupAddr{VNI: 7, Group: g}
		if sized.home(packAddr(a)) == home {
			out = append(out, a)
		}
	}
	return out
}

// TestAddrSetMatchesMap drives the set and a map[GroupAddr]bool — what
// Hypervisor.receiving used to be — through the same seeded sequence of
// add, remove and has, over a universe that has the zero address,
// same-home keys and enough keys to grow the table several times.
func TestAddrSetMatchesMap(t *testing.T) {
	universe := []GroupAddr{{}, {VNI: 0, Group: 1}, {VNI: 1, Group: 0}, {VNI: ^uint32(0), Group: ^uint32(0)}}
	universe = append(universe, collidingAddrs(6, addrSetMinSlots, 3)...)
	universe = append(universe, collidingAddrs(6, 64, 62)...)
	for v := uint32(1); v <= 4; v++ {
		for g := uint32(0); g < 40; g++ {
			universe = append(universe, GroupAddr{VNI: v, Group: g})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s addrSet
		model := make(map[GroupAddr]bool)
		grown := 0
		for step := 0; step < 4000; step++ {
			a := universe[rng.Intn(len(universe))]
			before := len(s.slots)
			// Adds outnumber removes until the table has grown, then the
			// mix flips so it drains again.
			if add := rng.Intn(10) < 6; add == (step < 2000) {
				s.add(a)
				model[a] = true
			} else {
				s.remove(a)
				delete(model, a)
			}
			if len(s.slots) > before {
				grown++
			}
			if step%16 == 0 || len(s.slots) != before {
				checkAgainst(t, &s, model, universe, step)
			}
		}
		checkAgainst(t, &s, model, universe, 4000)
		if grown < 3 {
			t.Fatalf("seed %d: table grew %d times, want at least 3", seed, grown)
		}
	}
}

// TestAddrSetRemoveInsideProbeRun removes each key of a run of same-home
// keys in turn — first, middle, last — and requires every other key to
// stay reachable; the second run wraps past the last slot.
func TestAddrSetRemoveInsideProbeRun(t *testing.T) {
	for _, home := range []int{3, addrSetMinSlots - 2} {
		run := collidingAddrs(5, addrSetMinSlots, home)
		for victim := range run {
			var s addrSet
			for _, a := range run {
				s.add(a)
			}
			if len(s.slots) != addrSetMinSlots {
				t.Fatalf("%d keys took %d slots, want %d", len(run), len(s.slots), addrSetMinSlots)
			}
			s.remove(run[victim])
			for i, a := range run {
				if s.has(a) != (i != victim) {
					t.Fatalf("home %d, removed key %d: has(key %d) = %v", home, victim, i, s.has(a))
				}
			}
			// No tombstone: the survivors sit in the first slots of the run.
			for i := 0; i < len(run); i++ {
				if full := s.slots[(home+i)%addrSetMinSlots] != 0; full != (i < len(run)-1) {
					t.Fatalf("home %d, removed key %d: slots %x", home, victim, s.slots)
				}
			}
		}
	}
}

// TestAddrSetChurnStaysBounded is lifecycle's endless install/uninstall:
// a million add/remove cycles over a working set of at most 24 live keys
// drawn from 4,096 must never grow the table past what 24 keys need.
func TestAddrSetChurnStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s addrSet
	var live []GroupAddr
	for cycle := 0; cycle < 1_000_000; cycle++ {
		if len(live) == 24 || (len(live) > 0 && rng.Intn(2) == 0) {
			i := rng.Intn(len(live))
			s.remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			a := GroupAddr{VNI: uint32(rng.Intn(4)), Group: uint32(rng.Intn(1024))}
			if !s.has(a) {
				s.add(a)
				live = append(live, a)
			}
		}
		if len(s.slots) > 32 {
			t.Fatalf("cycle %d: %d live keys in %d slots", cycle, len(live), len(s.slots))
		}
	}
	for _, a := range live {
		if !s.has(a) {
			t.Fatalf("live key %+v lost", a)
		}
	}
	want := len(live)
	if s.hasZero {
		want-- // the zero address lives in its flag, not in a slot
	}
	if s.n != want {
		t.Fatalf("n = %d, want %d (%d live keys)", s.n, want, len(live))
	}
}

// TestReceiveDigestUnchanged pins WriteStateDigest's receive-filter
// bytes: one 8-byte address and a 0x01 per group, in (VNI, Group) order,
// the zero address first.
func TestReceiveDigestUnchanged(t *testing.T) {
	hv := NewHypervisor(paperTopo(), 0)
	for _, a := range []GroupAddr{{VNI: 2, Group: 1}, {VNI: 1, Group: 9}, {}, {VNI: 1, Group: 3}} {
		if err := hv.SetReceivingAt(0, a, true); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	hv.WriteStateDigest(&got)
	want := []byte{
		0, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 0, 3, 1,
		0, 0, 0, 1, 0, 0, 0, 9, 1,
		0, 0, 0, 2, 0, 0, 0, 1, 1,
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("digest = %x\nwant     %x", got.Bytes(), want)
	}
}

// TestDeliverFullConcurrentWithSetReceiving has several goroutines
// deliver packets of a member group and of a non-member group while
// another toggles a third group's membership and retries at a stale
// epoch. Run under -race it checks hv.mu covers the set; everywhere it
// checks that every call was counted exactly once and that the toggling
// never disturbed the two groups it did not touch.
func TestDeliverFullConcurrentWithSetReceiving(t *testing.T) {
	const readers, calls = 4, 2000
	hv := NewHypervisor(paperTopo(), 3)
	reg := telemetry.NewRegistry()
	hv.Probe = &Probe{Metrics: NewMetrics(reg)}
	member, other, toggled := GroupAddr{VNI: 1, Group: 1}, GroupAddr{VNI: 1, Group: 2}, GroupAddr{VNI: 1, Group: 3}
	if err := hv.SetReceivingAt(5, member, true); err != nil {
		t.Fatal(err)
	}
	pkt := func(a GroupAddr) Packet {
		return Packet{Outer: SenderOuter(paperTopo(), 0, a), Elmo: []byte{header.TagEnd}, Inner: []byte("x")}
	}
	var stop atomic.Bool
	var stale atomic.Int64
	started, writerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		for on := true; !stop.Load(); on = !on {
			if err := hv.SetReceivingAt(5, toggled, on); err != nil {
				t.Error(err)
				return
			}
			// A deposed leader's write must bounce off the fence and
			// leave the filter alone.
			if err := hv.SetReceivingAt(4, member, false); err == nil {
				t.Error("stale epoch admitted")
				return
			}
			if stale.Add(1) == 1 {
				close(started)
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-started:
			case <-writerDone:
				return
			}
			for i := 0; i < calls; i++ {
				if _, _, ok := hv.DeliverFull(pkt(member)); !ok {
					t.Error("member group filtered")
					return
				}
				if _, _, ok := hv.DeliverFull(pkt(other)); ok {
					t.Error("non-member group delivered")
					return
				}
				hv.DeliverFull(pkt(toggled))
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-writerDone
	if t.Failed() {
		return
	}
	snap := reg.Snapshot()
	delivered, filtered := int(snap.Get("elmo_host_delivered_total")), int(snap.Get("elmo_host_filtered_total"))
	if got := delivered + filtered; got != 3*readers*calls {
		t.Fatalf("delivered+filtered = %d, made %d calls", got, 3*readers*calls)
	}
	if delivered < readers*calls || filtered < readers*calls {
		t.Fatalf("delivered %d filtered %d, each at least %d", delivered, filtered, readers*calls)
	}
	if got := hv.Fence().Rejected(); got != stale.Load() {
		t.Fatalf("fence rejected %d writes, %d stale writes were made", got, stale.Load())
	}
}

// BenchmarkDeliverFull is the receive path as fanout-sync drives it:
// consecutive copies go to different hypervisors of the 2,048-host bench
// topology, each filtering for its own few dozen groups, so the filter's
// memory is cold in cache the way the CPU profile found it — one hot
// table would measure something else. The counts are exact and checked.
func BenchmarkDeliverFull(b *testing.B) {
	topo := topology.MustNew(topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4})
	const groupsPerHost = 32
	reg := telemetry.NewRegistry()
	probe := &Probe{Metrics: NewMetrics(reg)}
	hvs := make([]*Hypervisor, topo.NumHosts())
	pkts := make([]Packet, len(hvs))
	for h := range hvs {
		hvs[h] = NewHypervisor(topo, topology.HostID(h))
		hvs[h].Probe = probe
		for g := 0; g < groupsPerHost; g++ {
			a := GroupAddr{VNI: uint32(1 + (h+g)%200), Group: uint32(h*7 + g)}
			if err := hvs[h].SetReceivingAt(0, a, true); err != nil {
				b.Fatal(err)
			}
			if g == h%groupsPerHost {
				pkts[h] = Packet{Outer: SenderOuter(topo, 0, a), Elmo: []byte{header.TagEnd}, Inner: []byte("frame"), NoINT: true}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride through the hosts so successive copies do not share a
		// cache line's worth of neighbours.
		h := (i * 613) % len(hvs)
		if _, _, ok := hvs[h].DeliverFull(pkts[h]); !ok {
			b.Fatalf("host %d filtered its own group", h)
		}
	}
	b.StopTimer()
	if delivered := int(reg.Snapshot().Get("elmo_host_delivered_total")); delivered != b.N {
		b.Fatalf("hypervisors counted %d deliveries, made %d", delivered, b.N)
	}
}
