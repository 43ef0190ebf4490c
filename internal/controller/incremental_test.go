package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"elmo/internal/topology"
)

// TestIncrementalRetreeMatchesFullRecompute drives a group through a
// scripted churn sequence hitting every delta case — port-only change,
// new leaf in an existing pod, new pod, leaf removal, pod removal,
// down to an empty receiver set — and after each operation compares
// the incrementally maintained encoding against a full recompute from
// the live member list. Capacity is ample, so the two must be
// byte-identical (the documented divergence exists only under table
// contention).
func TestIncrementalRetreeMatchesFullRecompute(t *testing.T) {
	for _, r := range []int{0, 12} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			topo := paperTopo()
			cfg := testConfig(r)
			cfg.SRuleCapacity = 10000
			c, err := New(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := GroupKey{Tenant: 1, Group: 1}
			// Host 0 is a pure sender so the receiver set can drain to
			// empty without losing the group.
			if _, err := c.CreateGroup(key, map[topology.HostID]Role{
				0: RoleSender, 1: RoleReceiver,
			}); err != nil {
				t.Fatal(err)
			}
			g := c.Group(key)

			ops := []struct {
				host topology.HostID
				join bool
				desc string
			}{
				{2, true, "port-only join, same leaf"},
				{8, true, "join opens leaf 1 in existing pod"},
				{16, true, "join opens pod 1"},
				{17, true, "port-only join on leaf 2"},
				{1, false, "port-only leave, leaf 0 stays"},
				{17, false, "port-only leave on leaf 2"},
				{16, false, "leave closes leaf 2 and pod 1"},
				{8, false, "leave closes leaf 1, pod 0 stays"},
				{2, false, "last receiver leaves, tree empties"},
			}
			for _, op := range ops {
				if op.join {
					err = c.Join(key, op.host, RoleReceiver)
				} else {
					err = c.Leave(key, op.host, RoleReceiver)
				}
				if err != nil {
					t.Fatalf("%s: %v", op.desc, err)
				}
				full, ferr := ComputeEncoding(topo, cfg, c.occ.CapacityFunc(), g.Receivers())
				if ferr != nil {
					t.Fatalf("%s: full recompute: %v", op.desc, ferr)
				}
				if !reflect.DeepEqual(g.Enc, full.Encoding) {
					t.Fatalf("%s: incremental encoding diverged from full recompute\n inc: %+v\nfull: %+v",
						op.desc, g.Enc, full)
				}
			}
		})
	}
}

// TestIncrementalRetreeReusesSpineSection asserts the structural claim
// of the incremental path: a port-only membership change (the pod→leaf
// structure untouched) must reuse the previous encoding's spine
// section by aliasing rather than re-encoding it.
func TestIncrementalRetreeReusesSpineSection(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(12)
	cfg.SRuleCapacity = 10000
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 1, Group: 1}
	// Spread receivers across several pods so the spine section is
	// non-trivial (multiple p-rules / possibly s-rules).
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{
		0: RoleBoth, 8: RoleReceiver, 16: RoleReceiver, 24: RoleReceiver,
		32: RoleReceiver, 40: RoleReceiver, 48: RoleReceiver, 56: RoleReceiver,
	}); err != nil {
		t.Fatal(err)
	}
	g := c.Group(key)
	before := g.Enc
	if before.DSpineSection == nil && len(before.SpineSRules) == 0 {
		t.Fatal("test premise broken: spine section is empty")
	}

	// Host 1 shares leaf 0 with host 0: a pure port change.
	if err := c.Join(key, 1, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	after := g.Enc
	if after == before {
		t.Fatal("encoding not replaced by retree")
	}
	if before.DSpineSection != nil && &after.DSpineSection[0] != &before.DSpineSection[0] {
		t.Error("DSpineSection was re-encoded, want aliased reuse")
	}
	if before.DSpineDefault != after.DSpineDefault {
		t.Error("DSpineDefault not reused")
	}
	if len(before.SpineSRules) > 0 &&
		reflect.ValueOf(after.SpineSRules).Pointer() != reflect.ValueOf(before.SpineSRules).Pointer() {
		t.Error("SpineSRules map was rebuilt, want aliased reuse")
	}
	if after.SpineRedundancy != before.SpineRedundancy {
		t.Error("SpineRedundancy changed on a port-only delta")
	}
}

// TestIncrementalRetreeRandomizedChurn fuzzes the delta cases: a long
// seeded Join/Leave sequence over the whole fabric, comparing the
// incrementally maintained encoding against a full recompute after
// every operation. Legacy switches are included so the forced-s-rule
// paths are delta-maintained too.
func TestIncrementalRetreeRandomizedChurn(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(12)
	cfg.SRuleCapacity = 10000
	cfg.LegacyLeaves = []topology.LeafID{3}
	cfg.LegacyPods = []topology.PodID{2}
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 7, Group: 9}
	if _, err := c.CreateGroup(key, map[topology.HostID]Role{0: RoleSender}); err != nil {
		t.Fatal(err)
	}
	g := c.Group(key)

	rng := rand.New(rand.NewSource(43))
	in := make(map[topology.HostID]bool)
	numHosts := topo.NumHosts()
	for i := 0; i < 300; i++ {
		h := topology.HostID(1 + rng.Intn(numHosts-1))
		if in[h] {
			err = c.Leave(key, h, RoleReceiver)
			delete(in, h)
		} else {
			err = c.Join(key, h, RoleReceiver)
			in[h] = true
		}
		if err != nil {
			t.Fatalf("op %d host %d: %v", i, h, err)
		}
		full, ferr := ComputeEncoding(topo, cfg, c.occ.CapacityFunc(), g.Receivers())
		if ferr != nil {
			t.Fatalf("op %d: full recompute: %v", i, ferr)
		}
		if !reflect.DeepEqual(g.Enc, full.Encoding) {
			t.Fatalf("op %d (host %d, join=%t): incremental encoding diverged from full recompute",
				i, h, in[h])
		}
	}
}
