package chaos

import (
	"testing"

	"elmo/internal/dataplane"
	"elmo/internal/topology"
)

// cut reports whether host h's outbound data packets drop.
func cut(inj *Injector, h topology.HostID) bool {
	return inj.Cross(hostLink(h, 0, true), 1, 1).Drop
}

// hostLink builds the NIC link between host h and leaf l, in the given
// direction (up: host -> leaf).
func hostLink(h topology.HostID, l int32, up bool) dataplane.Link {
	if up {
		return dataplane.Link{FromTier: dataplane.LinkHost, From: int32(h), ToTier: dataplane.LinkLeaf, To: l}
	}
	return dataplane.Link{FromTier: dataplane.LinkLeaf, From: l, ToTier: dataplane.LinkHost, To: int32(h)}
}

// TestPartitionIsBidirectional: a partitioned host can neither send
// nor receive — both directions of its NIC link drop, probes included
// — while unrelated hosts are untouched.
func TestPartitionIsBidirectional(t *testing.T) {
	inj := New(Config{Seed: 3})
	inj.Partition(5)
	if !inj.Active() {
		t.Fatal("Partition did not arm the injector")
	}
	if v := inj.Cross(hostLink(5, 0, true), 1, 1); !v.Drop {
		t.Fatal("partitioned host's outbound packet survived")
	}
	if v := inj.Cross(hostLink(5, 0, false), 1, 1); !v.Drop {
		t.Fatal("partitioned host's inbound packet survived")
	}
	if v := inj.Cross(hostLink(5, 0, false), dataplane.ProbeVNI, 1); !v.Drop {
		t.Fatal("probe crossed the partition")
	}
	if v := inj.Cross(hostLink(6, 0, true), 1, 1); v.Drop {
		t.Fatal("unpartitioned host's packet dropped")
	}
	// Switch-to-switch links are unaffected: the cut is at host NICs.
	if v := inj.Cross(testLink(), 1, 1); v.Drop {
		t.Fatal("switch link dropped under host partition")
	}
}

// TestHealRestoresOnlyPartition: Heal reconnects partitioned hosts but
// leaves crash overrides in place, and clearing the crash's override
// conversely does not mend a partition.
func TestHealRestoresOnlyPartition(t *testing.T) {
	inj := New(Config{Seed: 11})
	inj.CrashHost(2)
	inj.Partition(5, 7)
	if !cut(inj, 2) || !cut(inj, 5) || !cut(inj, 7) {
		t.Fatal("crashed or partitioned host still forwarding")
	}

	// Clearing the override repairs the crash but keeps the partition.
	inj.SetSwitchLoss(dataplane.LinkHost, 2, 0)
	if cut(inj, 2) {
		t.Fatal("clearing the override left host 2 crashed")
	}
	if !cut(inj, 5) {
		t.Fatal("clearing a loss override silently healed the partition")
	}

	// Re-crash, then Heal: the partition lifts, the crash stays.
	inj.CrashHost(2)
	inj.Heal()
	if cut(inj, 5) || cut(inj, 7) {
		t.Fatal("healed host still dropping")
	}
	if !cut(inj, 2) {
		t.Fatal("crashed host forwarding after Heal")
	}
}

// TestPlanPartitionEvents scripts partition-at-2 / heal-at-4 and walks
// the logical clock through it.
func TestPlanPartitionEvents(t *testing.T) {
	inj := New(Config{Seed: 13})
	inj.Enable()
	inj.LoadPlan(FaultPlan{
		{Step: 2, PartitionHosts: []topology.HostID{1, 4}},
		{Step: 4, HealPartition: true},
	})
	inj.Step() // step 1: nothing
	if cut(inj, 1) {
		t.Fatal("partition fired early")
	}
	if ev := inj.Step(); len(ev) != 1 { // step 2: cut
		t.Fatalf("step 2 applied %d events", len(ev))
	}
	if !cut(inj, 1) || !cut(inj, 4) {
		t.Fatal("scripted partition not applied")
	}
	inj.Step() // step 3
	inj.Step() // step 4: heal
	if cut(inj, 1) || cut(inj, 4) {
		t.Fatal("scripted heal not applied")
	}
}
