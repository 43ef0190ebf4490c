package controller

import (
	"bytes"
	"testing"

	"elmo/internal/header"
	"elmo/internal/topology"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2 // force s-rules so occupancy matters
	c1, _ := New(topo, cfg)
	if _, err := c1.CreateGroup(GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver, 56: RoleReceiver, 63: RoleSender}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateGroup(GroupKey{Tenant: 2, Group: 7},
		map[topology.HostID]Role{8: RoleBoth, 17: RoleReceiver}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	c2, _ := New(topo, cfg)
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if c2.NumGroups() != 2 {
		t.Fatalf("restored %d groups", c2.NumGroups())
	}
	// Occupancy identical per switch.
	for l := 0; l < topo.NumLeaves(); l++ {
		if c1.LeafSRuleCount(topology.LeafID(l)) != c2.LeafSRuleCount(topology.LeafID(l)) {
			t.Fatalf("leaf %d occupancy differs", l)
		}
	}
	for s := 0; s < topo.NumSpines(); s++ {
		if c1.SpineSRuleCount(topology.SpineID(s)) != c2.SpineSRuleCount(topology.SpineID(s)) {
			t.Fatalf("spine %d occupancy differs", s)
		}
	}
	// Sender headers identical.
	h1, err := c1.HeaderFor(GroupKey{Tenant: 1, Group: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.HeaderFor(GroupKey{Tenant: 1, Group: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := header.LayoutFor(topo)
	w1, err := header.Encode(l, h1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := header.Encode(l, h2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1, w2) {
		t.Fatal("restored controller produces different headers")
	}
	// Restore into a non-empty controller is rejected.
	if err := c2.Restore(snap); err == nil {
		t.Fatal("restore into non-empty controller accepted")
	}
	// Version check.
	snap.Version = 99
	c3, _ := New(topo, cfg)
	if err := c3.Restore(snap); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadSnapshotRejectsCorruptInput(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	c, _ := New(topo, cfg)
	if _, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]Role{0: RoleBoth, 40: RoleReceiver, 56: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"empty":      {},
		"truncated":  valid[:len(valid)/2],
		"garbage":    bytes.Repeat([]byte{0x00, 0xff, 0x13}, 64),
		"binary":     {0x89, 0x50, 0x4e, 0x47, 0x0d, 0x0a},
		"wrong type": []byte(`{"version": "one", "groups": 7}`),
		"version":    []byte(`{"version": 99, "groups": []}`),
	}
	for name, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s input accepted", name)
		}
	}
}

func TestRestoreNeverHalfRestores(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)

	// Structurally invalid snapshots: rejected before any mutation.
	bad := map[string]*Snapshot{
		"bad role": {Version: snapshotVersion, Groups: []GroupSnapshot{
			{Tenant: 1, Group: 1, Members: []MemberSnapshot{{Host: 0, Role: 7}}},
		}},
		"zero role": {Version: snapshotVersion, Groups: []GroupSnapshot{
			{Tenant: 1, Group: 1, Members: []MemberSnapshot{{Host: 0, Role: 0}}},
		}},
		"host out of range": {Version: snapshotVersion, Groups: []GroupSnapshot{
			{Tenant: 1, Group: 1, Members: []MemberSnapshot{{Host: 9999, Role: RoleBoth}}},
		}},
		"negative host": {Version: snapshotVersion, Groups: []GroupSnapshot{
			{Tenant: 1, Group: 1, Members: []MemberSnapshot{{Host: -1, Role: RoleBoth}}},
		}},
		"duplicate group": {Version: snapshotVersion, Groups: []GroupSnapshot{
			{Tenant: 1, Group: 1, Members: []MemberSnapshot{{Host: 0, Role: RoleBoth}}},
			{Tenant: 1, Group: 1, Members: []MemberSnapshot{{Host: 1, Role: RoleBoth}}},
		}},
		"duplicate host": {Version: snapshotVersion, Groups: []GroupSnapshot{
			{Tenant: 1, Group: 1, Members: []MemberSnapshot{
				{Host: 0, Role: RoleBoth}, {Host: 0, Role: RoleReceiver}}},
		}},
	}
	for name, snap := range bad {
		c, _ := New(topo, cfg)
		if err := c.Restore(snap); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if c.NumGroups() != 0 {
			t.Fatalf("%s half-restored %d groups", name, c.NumGroups())
		}
	}

	// A valid-looking snapshot that fails mid-install (s-rule tables too
	// small for the later groups) must unwind, leaving the controller
	// exactly as empty as it started.
	big, _ := New(topo, cfg)
	for i := 0; i < 8; i++ {
		key := GroupKey{Tenant: 1, Group: uint32(i + 1)}
		members := map[topology.HostID]Role{
			topology.HostID(i): RoleBoth,
			40:                 RoleReceiver,
			56:                 RoleReceiver,
		}
		if _, err := big.CreateGroup(key, members); err != nil {
			t.Fatal(err)
		}
	}
	snap := big.Snapshot()
	tight := cfg
	// Leaf 5 (hosts 40-47) is legacy, so every group needs an s-rule
	// there — and with one table entry the second group fails install.
	tight.LegacyLeaves = []topology.LeafID{5}
	tight.SRuleCapacity = 1
	c, _ := New(topo, tight)
	if err := c.Restore(snap); err == nil {
		t.Fatal("restore succeeded on a fabric it cannot fit")
	}
	if c.NumGroups() != 0 {
		t.Fatalf("failed restore left %d groups behind", c.NumGroups())
	}
	for l := 0; l < topo.NumLeaves(); l++ {
		if c.LeafSRuleCount(topology.LeafID(l)) != 0 {
			t.Fatalf("failed restore leaked leaf %d occupancy", l)
		}
	}
	for s := 0; s < topo.NumSpines(); s++ {
		if c.SpineSRuleCount(topology.SpineID(s)) != 0 {
			t.Fatalf("failed restore leaked spine %d occupancy", s)
		}
	}
	requireOccupancyConserved(t, c)
}
