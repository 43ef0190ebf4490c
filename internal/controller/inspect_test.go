package controller

import (
	"testing"

	"elmo/internal/topology"
)

func TestInspectGroupsAndController(t *testing.T) {
	topo := topology.MustNew(topology.PaperExample())
	c, err := New(topo, PaperConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(g uint32, hosts ...topology.HostID) GroupKey {
		key := GroupKey{Tenant: 1, Group: g}
		members := make(map[topology.HostID]Role, len(hosts))
		for _, h := range hosts {
			members[h] = RoleBoth
		}
		if _, err := c.CreateGroup(key, members); err != nil {
			t.Fatal(err)
		}
		return key
	}
	mk(1, 0, 1, 40)
	mk(2, 2, 3)
	mk(3, 0, 63)

	groups, total := c.InspectGroups(0)
	if total != 3 || len(groups) != 3 {
		t.Fatalf("InspectGroups: total=%d len=%d", total, len(groups))
	}
	// Sorted by (vni, group), summaries coherent with membership.
	for i, g := range groups {
		if g.Group != uint32(i+1) {
			t.Fatalf("order wrong at %d: %+v", i, g)
		}
		if g.Senders != g.Members || g.Receivers != g.Members {
			t.Fatalf("RoleBoth group has sender/receiver mismatch: %+v", g)
		}
	}
	if groups[0].Members != 3 || groups[1].Members != 2 {
		t.Fatalf("member counts wrong: %+v", groups[:2])
	}
	// Limit truncates after sorting.
	if limited, total := c.InspectGroups(2); total != 3 || len(limited) != 2 || limited[1].Group != 2 {
		t.Fatalf("limited inspect wrong: total=%d %+v", total, limited)
	}

	d, ok := c.InspectGroup(GroupKey{Tenant: 1, Group: 1})
	if !ok {
		t.Fatal("group 1 not found")
	}
	if len(d.MemberList) != 3 || d.MemberList[0].Host != 0 || d.MemberList[0].Role != "both" {
		t.Fatalf("member list wrong: %+v", d.MemberList)
	}
	if len(d.Tree) == 0 || len(d.Encoding.Pods) == 0 {
		t.Fatalf("tree/encoding empty: %+v", d)
	}
	// All three members can send; each gets a positive header size.
	if len(d.Headers) != 3 {
		t.Fatalf("headers: %+v", d.Headers)
	}
	for _, h := range d.Headers {
		if h.Bytes <= 0 || h.Err != "" {
			t.Fatalf("header for sender %d: %+v", h.Sender, h)
		}
	}
	// Receiver ports in the tree cover exactly the member hosts.
	ports := 0
	for _, tl := range d.Tree {
		ports += len(tl.Ports)
	}
	if ports != 3 {
		t.Fatalf("tree covers %d ports, want 3", ports)
	}

	if _, ok := c.InspectGroup(GroupKey{Tenant: 9, Group: 9}); ok {
		t.Fatal("phantom group found")
	}

	info := c.InspectController()
	if info.TotalGroups != 3 {
		t.Fatalf("controller info wrong: %+v", info)
	}
	st := c.Stats()
	if info.HypervisorUpdates == 0 || info.HypervisorUpdates != sumCounts(st.Hypervisor) ||
		info.HypervisorUpdates+info.LeafUpdates+info.SpineUpdates+info.CoreUpdates != st.Total() {
		t.Fatalf("controller info %+v disagrees with stats %+v", info, st)
	}
}

// TestInspectGroupCountsSRuleEntries pins what the s-rule fields of the
// group view count: the switches holding the group's entry, as the
// p-rule fields beside them count rules — not the ports those entries
// cover. With no p-rule budget, the Figure 3 group takes an s-rule on
// each of its 4 leaves (6 receiver ports) and 3 pods (4 receiver leaves).
func TestInspectGroupCountsSRuleEntries(t *testing.T) {
	cfg := testConfig(0)
	cfg.LeafRuleLimit, cfg.SpineRuleLimit = 0, 0
	c, err := New(paperTopo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 1, Group: 3}
	members := make(map[topology.HostID]Role)
	for _, h := range figure3Receivers() {
		members[h] = RoleBoth
	}
	if _, err := c.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	d, ok := c.InspectGroup(key)
	if !ok {
		t.Fatal("group not found")
	}
	if e := d.Encoding; e.LeafSRules != 4 || e.SpineSRules != 3 || e.LeafPRules != 0 || e.SpinePRules != 0 {
		t.Fatalf("encoding view %+v, want 4 leaf and 3 spine s-rules, no p-rules", e)
	}
	if !d.UsesSRules || !d.Exact {
		t.Fatalf("summary %+v, want an exact encoding on s-rules", d.GroupSummary)
	}
}
