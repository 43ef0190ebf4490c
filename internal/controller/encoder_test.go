package controller

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/raceflag"
	"elmo/internal/topology"
)

// benchReceiverSets places 200 tenants on the benchmark's 2,048-host
// fabric and returns the host lists of n WVE-sized groups: the shapes the
// benchmark's controller.encode_allocs kernel encodes.
func benchReceiverSets(t testing.TB, n int) (*topology.Topology, [][]topology.HostID) {
	t.Helper()
	topo := topology.MustNew(topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4})
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 200, VMsPerHost: 20, MinVMs: 10, MaxVMs: 400, MeanVMs: 60, P: 4, Seed: 2019,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: n, MinSize: 5, Dist: groupgen.WVE, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]topology.HostID, len(gs))
	for i := range gs {
		sets[i] = gs[i].Hosts
	}
	return topo, sets
}

// TestEncodeAllocationBudget pins what one encoding allocates with a warm
// scratch: the Encoding, then per layer its section bytes and any s-rule
// list; the tree lives in the scratch. A tree map, or a bitmap or rule
// list allocated on its own, shows here.
func TestEncodeAllocationBudget(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	const budget = 3 // 3.00 measured; 9 when an encoding held its tree as two maps and a word slab, 13 when each layer kept its rules as structs, 55 when every tree and rule bitmap was its own allocation
	topo, sets := benchReceiverSets(t, 512)
	cfg := PaperConfig(0)
	capFn := NewOccupancy(topo, cfg.SRuleCapacity).CapacityFunc()
	var s EncodeScratch
	i := 0
	step := func() {
		if _, err := ComputeEncodingInto(topo, cfg, capFn, sets[i%len(sets)], &s); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range sets { // warm the scratch on every shape first
		step()
	}
	allocs := testing.AllocsPerRun(4*len(sets), step)
	if allocs > budget {
		t.Fatalf("warm ComputeEncodingInto allocated %.2f times per encoding, budget %d", allocs, budget)
	}
	t.Logf("warm ComputeEncodingInto: %.2f allocations per encoding", allocs)
}

// benchGroups is 5,000 seeded WVE groups on the benchmark's fabric,
// each member a receiver and a quarter of them (and the first) senders
// too, as one batch.
func benchGroups(t testing.TB) (*topology.Topology, []BatchSpec) {
	t.Helper()
	topo, sets := benchReceiverSets(t, 5000)
	rng := rand.New(rand.NewSource(41))
	specs := make([]BatchSpec, len(sets))
	for i, hosts := range sets {
		members := make(map[topology.HostID]Role, len(hosts))
		for j, h := range hosts {
			members[h] = RoleReceiver
			if j == 0 || rng.Intn(4) == 0 {
				members[h] = RoleBoth
			}
		}
		specs[i] = BatchSpec{Key: GroupKey{Tenant: 1, Group: uint32(i + 1)}, Members: members}
	}
	return topo, specs
}

// install installs specs in one batch at R=0.
func install(t testing.TB, topo *topology.Topology, specs []BatchSpec) *Controller {
	t.Helper()
	c, err := New(topo, PaperConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InstallBatch(specs, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	return c
}

// restore reads c's state stream into a fresh controller on c's
// topology and configuration.
func restore(t testing.TB, c *Controller, state []byte) *Controller {
	t.Helper()
	back, err := New(c.Topology(), c.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ReadState(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestLiveHeapPerGroup pins the live heap a controller holds per group
// of benchGroups, installed, and then restored from its state stream by
// ReadState into a fresh controller: a restore derives the groups with
// the encoder's code, so it must keep the encoder's memory shape. The
// bound is the measured bytes per group plus under 2 % slack; it may
// only tighten. A group's live heap is its member list, its two
// downstream sections and its s-rule lists; it was 2,600 B when an
// encoding held its tree as two maps, a pod bitmap and their bitmaps,
// and 3,495 B when each layer also kept its p-rules as structs.
func TestLiveHeapPerGroup(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	const boundBytes = 875 // per group; 859 measured installed, 842 restored
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	topo, specs := benchGroups(t)
	before := heap()
	c := install(t, topo, specs)
	installed := float64(heap()-before) / float64(len(specs))
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	before = heap()
	back := restore(t, c, state.Bytes())
	restored := float64(heap()-before) / float64(len(specs))
	runtime.KeepAlive(specs)
	runtime.KeepAlive(&state)
	runtime.KeepAlive(c)
	runtime.KeepAlive(back)
	if installed > boundBytes || restored > boundBytes {
		t.Fatalf("live heap %.0f B per group installed, %.0f B restored, bound %d", installed, restored, boundBytes)
	}
	t.Logf("live heap: %.0f B per group installed, %.0f B restored", installed, restored)
}

// TestReadStateAllocationBudget pins what ReadState allocates per group
// restoring benchGroups: the group and its member list, then what an
// encoding with a warm scratch allocates (the Encoding, each layer's
// section bytes and any s-rule list). The bound is the measured count
// plus under 2 % slack; a tree map, a bitmap decoded on its own, or a
// scratch made per group, shows here.
func TestReadStateAllocationBudget(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	const budget = 5.4 // per group; 5.33 measured; 11.82 when an encoding held its tree as two maps and a word slab, 29.33 when each tree bitmap was also decoded on its own
	topo, specs := benchGroups(t)
	c := install(t, topo, specs)
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() { restore(t, c, state.Bytes()) }) / float64(len(specs))
	if allocs > budget {
		t.Fatalf("ReadState allocated %.2f times per group, budget %.2f", allocs, budget)
	}
	t.Logf("ReadState: %.2f allocations per group", allocs)
}

// TestStateBytesPerGroup pins the state stream's size per group of
// benchGroups. A record holds only the choices: its key, its members
// then per layer each p-rule's switch list and the
// s-rule switches. The bound is the measured size plus under 2 % slack;
// version 1 of the format, which also stored the tree, every bitmap, the
// default flags and the redundancies, wrote 227 B per group.
func TestStateBytesPerGroup(t *testing.T) {
	const bound = 139.0 // per group; 136.83 measured
	topo, specs := benchGroups(t)
	c := install(t, topo, specs)
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	per := float64(state.Len()) / float64(len(specs))
	if per > bound {
		t.Fatalf("state stream %.2f B per group, bound %.2f", per, bound)
	}
	t.Logf("state stream: %.2f B per group", per)
}

// TestEncodingsAreAdmissible: every encoding the encoder emits passes
// admissible under the config that made it — through CreateGroup and
// the incremental Join/Leave path (buildBusyController, and a seeded
// churn over a legacy leaf, a legacy pod and scarce s-rule tables), and
// through InstallBatch (the 5,000 benchGroups at R=0 and R=12).
func TestEncodingsAreAdmissible(t *testing.T) {
	requireAdmissible := func(c *Controller, when string, keys ...GroupKey) {
		t.Helper()
		if keys == nil {
			keys = c.GroupKeys()
		}
		for _, key := range keys {
			if g := c.Group(key); g != nil {
				var tree Tree
				tree.Read(c.Topology(), g.Members)
				if err := admissible(c.Topology(), c.Config(), g.Enc, &tree); err != nil {
					t.Fatalf("%s: group %v: %v", when, key, err)
				}
			}
		}
	}
	tight, small := testConfig(2), testConfig(2)
	tight.LeafRuleLimit, tight.SpineRuleLimit, tight.SRuleCapacity = 2, 1, 12
	small.MaxHeaderBytes = 40 // room for 5 leaf p-rules
	for _, cfg := range []Config{testConfig(0), testConfig(2), tight, small} {
		requireAdmissible(buildBusyController(t, cfg), fmt.Sprintf("busy controller under %+v", cfg))
	}
	topo, specs := benchGroups(t)
	for _, r := range []int{0, 12} {
		c, err := New(topo, PaperConfig(r))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.InstallBatch(specs, BatchOptions{}); err != nil {
			t.Fatal(err)
		}
		requireAdmissible(c, fmt.Sprintf("benchGroups at R=%d", r))
	}

	cfg := testConfig(2)
	cfg.LeafRuleLimit, cfg.SRuleCapacity = 3, 3
	cfg.LegacyLeaves, cfg.LegacyPods = []topology.LeafID{7}, []topology.PodID{1}
	c, err := New(paperTopo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]GroupKey, 8)
	for i := range keys {
		keys[i] = GroupKey{Tenant: 1, Group: uint32(i)}
		if _, err := c.CreateGroup(keys[i], map[topology.HostID]Role{topology.HostID(i): RoleBoth}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(46))
	n, changed := c.Topology().NumHosts(), 0
	for op := 0; op < 3000; op++ {
		key, h, role := keys[rng.Intn(len(keys))], topology.HostID(rng.Intn(n)), Role(1+rng.Intn(3))
		var err error
		if rng.Intn(3) > 0 {
			err = c.Join(key, h, role)
		} else {
			err = c.Leave(key, h, role)
		}
		if err == nil {
			changed++
		}
		requireAdmissible(c, fmt.Sprintf("churn op %d", op), key)
	}
	if changed < 1000 {
		t.Fatalf("only %d of 3000 churn ops changed a group", changed)
	}
}
