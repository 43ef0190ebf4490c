package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"elmo/internal/topology"
)

func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(3); got != 3 {
		t.Fatalf("resolveWorkers(3) = %d", got)
	}
	if got := resolveWorkers(0); got < 1 {
		t.Fatalf("resolveWorkers(0) = %d, want >= 1", got)
	}
	if resolveWorkers(0) != resolveWorkers(-1) {
		t.Fatal("resolveWorkers(0) != resolveWorkers(-1)")
	}
}

// TestAbandonedControllerIsCollected: a controller the caller drops
// after a membership op is garbage at the next collection. A Put
// registers a sync.Pool with the runtime, which keeps it reachable
// through the next GC, so a pool stored in the controller kept the
// whole controller — and every group in it — alive through one more
// cycle: a bulk install built its groups while the previous
// controller's still counted as live heap.
func TestAbandonedControllerIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		c, err := New(paperTopo(), testConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		key := GroupKey{Tenant: 1, Group: 1}
		if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleBoth, 8: RoleReceiver}); err != nil {
			t.Fatal(err)
		}
		if err := c.Join(key, 16, RoleReceiver); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(c, func(*Controller) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(time.Second):
		t.Fatal("a dropped controller survived a GC: something outside it still points in")
	}
}

// TestStatsDeepCopy is the regression test for the Stats() aliasing
// bug: the returned snapshot must be fully detached from live state, so
// mutating the controller afterwards (or concurrently — run under
// -race) never changes or races with an already-taken snapshot.
func TestStatsDeepCopy(t *testing.T) {
	topo := paperTopo()
	c, err := New(topo, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 1, Group: 1}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleBoth, 8: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	snap := c.Stats()
	before := snap.Hypervisor[0]

	// Writers mutate stats while readers hold and re-read old snapshots:
	// -race proves the snapshot shares no memory with live state.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			h := topology.HostID(16 + i%8)
			c.Join(key, h, RoleReceiver)
			c.Leave(key, h, RoleReceiver)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := c.Stats()
			s.Hypervisor[0]++ // scribbling on a snapshot must be harmless
			s.Core++
			snap.Total()
		}
	}()
	wg.Wait()

	// The snapshot predates all churn: under the old aliasing contract
	// the retrees above would have mutated it in place (host 0 is a
	// sender, so every retree recharges its hypervisor).
	if snap.Hypervisor[0] != before {
		t.Fatalf("snapshot mutated through live state: %d, want %d", snap.Hypervisor[0], before)
	}
	// And writes to a snapshot never reach live state.
	s1 := c.Stats()
	s1.Hypervisor[0] += 1000
	s1.Core += 7
	s2 := c.Stats()
	if s2.Hypervisor[0] == s1.Hypervisor[0] || s2.Core != 0 {
		t.Fatalf("snapshot writes visible in live stats: %+v", s2)
	}
}

// TestConcurrencySoakMatchesSerialReplay (run under -race by `make
// race`) hammers one controller with concurrent InstallBatch, scripted
// Join/Leave churn, and whole-state readers (Stats, Fingerprint,
// GroupKeys, HeaderFor), then asserts the final fingerprint equals a
// serial replay. Capacity is ample so encodings are independent of
// admission interleaving and the serial replay is the unique correct
// outcome.
func TestConcurrencySoakMatchesSerialReplay(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(1)
	cfg.SRuleCapacity = 10000
	numHosts := topo.NumHosts()

	baseSpecs := randSpecs(1, 32, 21, numHosts)
	batchA := randSpecs(10, 80, 22, numHosts)
	batchB := randSpecs(11, 80, 23, numHosts)

	// Scripted per-group op sequences: joins followed by leaves of a
	// subset of those joins, so every Leave targets a held role and the
	// per-group trajectory is deterministic under partitioned replay.
	type churnOp struct {
		join bool
		host topology.HostID
	}
	ops := make([][]churnOp, len(baseSpecs))
	rng := rand.New(rand.NewSource(24))
	for i, s := range baseSpecs {
		joined := make(map[topology.HostID]bool)
		for j := 0; j < 10; j++ {
			h := topology.HostID(rng.Intn(numHosts))
			if _, already := s.Members[h]; already || joined[h] {
				continue
			}
			joined[h] = true
			ops[i] = append(ops[i], churnOp{join: true, host: h})
			if j%3 == 0 {
				ops[i] = append(ops[i], churnOp{join: false, host: h})
				delete(joined, h)
			}
		}
	}

	run := func(c *Controller, concurrent bool) {
		t.Helper()
		for _, s := range baseSpecs {
			if _, err := c.CreateGroup(s.Key, s.Members); err != nil {
				t.Fatal(err)
			}
		}
		applyChurn := func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				for _, op := range ops[i] {
					var err error
					if op.join {
						err = c.Join(baseSpecs[i].Key, op.host, RoleReceiver)
					} else {
						err = c.Leave(baseSpecs[i].Key, op.host, RoleReceiver)
					}
					if err != nil {
						return fmt.Errorf("churn group %d host %d join=%t: %w", i, op.host, op.join, err)
					}
				}
			}
			return nil
		}
		if !concurrent {
			if err := applyChurn(0, len(ops)); err != nil {
				t.Fatal(err)
			}
			for _, b := range [][]BatchSpec{batchA, batchB} {
				if _, err := c.InstallBatch(b, BatchOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.InstallBatch(batchA, BatchOptions{Workers: 4})
			errs <- err
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.InstallBatch(batchB, BatchOptions{Workers: 2})
			errs <- err
		}()
		mid := len(ops) / 2
		wg.Add(2)
		go func() { defer wg.Done(); errs <- applyChurn(0, mid) }()
		go func() { defer wg.Done(); errs <- applyChurn(mid, len(ops)) }()

		// Readers race everything: whole-state reads (Stats, Fingerprint)
		// interleave with single-group reads.
		stopReaders := make(chan struct{})
		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				c.Stats()
				c.Fingerprint()
				c.GroupKeys()
				c.NumGroups()
				for _, s := range baseSpecs[:4] {
					for h, r := range s.Members {
						if r.CanSend() {
							c.HeaderFor(s.Key, h)
						}
					}
				}
			}
		}()
		wg.Wait()
		close(stopReaders)
		readers.Wait()
		for i := 0; i < 4; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	serial, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(serial, false)
	soak, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(soak, true)

	if sf, cf := serial.Fingerprint(), soak.Fingerprint(); sf != cf {
		t.Fatalf("soak fingerprint %s, want serial %s", cf, sf)
	}
	if !reflect.DeepEqual(serial.Stats(), soak.Stats()) {
		t.Fatal("soak stats differ from serial replay")
	}
	requireSameState(t, "soak vs serial", serial, soak)
	requireOccupancyConserved(t, soak)
}
