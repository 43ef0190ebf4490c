package chaos

import "elmo/internal/topology"

// Network partitions. A partition isolates a set of hosts from the
// rest of the fabric symmetrically: every packet entering OR leaving a
// partitioned host's NIC link is dropped, probes included. Unlike
// CrashHost, the host itself keeps running — its controller still
// heartbeats, still believes it leads — which is exactly the scenario
// leadership fencing exists for: the majority side promotes a
// successor while the minority side's leader is alive and writing.
//
// Partition state is held apart from the loss overrides so the two
// fault classes compose: Heal reconnects the partitioned hosts without
// resurrecting hosts killed by CrashHost, and clearing a loss override
// repairs a gray failure without silently mending a partition.

// Partition cuts the given hosts off from the rest of the fabric
// (bidirectionally), arming the injector if needed. Calling it again
// extends the partitioned set.
func (inj *Injector) Partition(hosts ...topology.HostID) {
	inj.mu.Lock()
	for _, h := range hosts {
		inj.partitioned[int32(h)] = true
	}
	inj.refreshOverridesLocked()
	inj.mu.Unlock()
	inj.Enable()
}

// Heal removes the partition entirely: every partitioned host is
// reconnected. Loss overrides (crashes, gray failures) are untouched.
func (inj *Injector) Heal() {
	inj.mu.Lock()
	inj.partitioned = make(map[int32]bool)
	inj.refreshOverridesLocked()
	inj.mu.Unlock()
}
