package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"elmo/internal/chaos"
	"elmo/internal/churn"
	"elmo/internal/controller"
	"elmo/internal/durable"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/topology"
)

// runDurable walks the durable-controller story end to end: log every
// op, snapshot, crash, recover byte-identically, then lose the leader
// host to the chaos injector and fail over to a warm replica.
func runDurable(topoCfg topology.Config, tenants, groups, srules int, meanVMs float64, seed int64) {
	topo := topology.MustNew(topoCfg)
	cfg := paperController(0, srules)
	dir, err := os.MkdirTemp("", "elmo-durable-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	rs, inj, leader, standby := replicaPlane(topo, cfg, 1, seed)

	d, _, err := durable.Open(topo, cfg, durable.Options{Dir: dir, Replicate: rs.Replicator()})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== durable controller: WAL + snapshot + replicated failover ===\n")
	fmt.Printf("durability root: %s (WAL segments under wal/)\n\n", dir)

	// Phases 1 and 2: durable group creation, snapshot, churn tail.
	start := time.Now()
	lsn := durableWorkload(d, topo, tenants, groups, meanVMs, seed)
	if err := rs.Sync(); err != nil {
		log.Fatal(err)
	}
	want := d.Controller().Fingerprint()
	fmt.Printf("created %d groups durably (every op logged before apply, group-committed fsync), snapshotted at LSN %d\n", groups, lsn)
	fmt.Printf("and applied %d churn ops past the snapshot in %v; state fingerprint %s\n\n",
		durableTailOps, time.Since(start).Round(time.Millisecond), want[:16])

	// Phase 3: crash + recover. Dropping the instance without Close is
	// the crash; the WAL's durable prefix is all that survives.
	fmt.Println("--- crash: controller process dies without warning ---")
	d = nil
	d2, stats, err := durable.Open(topo, cfg, durable.Options{Dir: dir, Replicate: nil})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered in %v: snapshot (%d bytes, %v) + %d replayed records -> %d groups\n",
		(stats.SnapshotElapsed + stats.ReplayElapsed).Round(time.Millisecond),
		stats.SnapshotBytes, stats.SnapshotElapsed.Round(time.Millisecond),
		stats.Replayed, stats.Groups)
	got := d2.Controller().Fingerprint()
	if got != want {
		log.Fatalf("recovered fingerprint %s != pre-crash %s", got, want)
	}
	fmt.Printf("state fingerprint %s — byte-identical to the crashed instance\n\n", got[:16])
	if err := d2.Close(); err != nil {
		log.Fatal(err)
	}

	// Phase 4: leader host dies; warm standby promotes.
	fmt.Printf("--- chaos: leader host %d loses every link ---\n", leader)
	inj.CrashHost(leader)
	det := &durable.Detector{DeadAfter: 3}
	f := rs.Follower(standby)
	rounds := 0
	for !det.Observe(f.Records()) {
		rounds++
		if rounds > 100 {
			log.Fatal("dead leader never detected")
		}
	}
	start = time.Now()
	promoted, pstats, err := durable.Promote(f, durable.Options{Dir: dir + "-promoted"})
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir + "-promoted")
	defer promoted.Close()
	fmt.Printf("standby on host %d declared leader dead after %d silent probe rounds\n", standby, rounds)
	fmt.Printf("promoted warm replica in %v: %d groups, fingerprint %s\n",
		time.Since(start).Round(time.Millisecond), pstats.Groups,
		promoted.Controller().Fingerprint()[:16])
	if promoted.Controller().Fingerprint() != want {
		log.Fatal("promoted replica diverged from the leader's replicated state")
	}
	fmt.Println("promoted controller matches the dead leader's last replicated state; new WAL epoch open for writes")
}

// replicaPlane builds the replication plane of the durable scenarios:
// leader host 0 and a warm standby halfway along the hosts, replicating
// through group (4000, group) over a fabric with a chaos injector on
// every link.
func replicaPlane(topo *topology.Topology, cfg controller.Config, group uint32, seed int64) (*durable.ReplicaSet, *chaos.Injector, topology.HostID, topology.HostID) {
	netCtrl, err := controller.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fab := fabric.New(topo, cfg.SRuleCapacity)
	fab.SetFailures(netCtrl.Failures())
	inj := chaos.New(chaos.Config{Seed: uint64(seed)})
	fab.SetInjector(inj)
	leader, standby := topology.HostID(0), topology.HostID(topo.NumHosts()/2)
	rs, err := durable.NewReplicaSet(durable.ReplicaSetConfig{
		Net:       durable.Net(netCtrl, fab),
		Key:       controller.GroupKey{Tenant: 4000, Group: group},
		Leader:    leader,
		Followers: []topology.HostID{standby},
		Window:    64,
		Topo:      topo,
		Cfg:       cfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	return rs, inj, leader, standby
}

// durableTailOps is the number of joins and leaves durableWorkload
// applies past its snapshot.
const durableTailOps = 200

// durableWorkload is the deterministic part of the -durable scenario: it
// creates the groups controlGroups draws through d, snapshots, and
// applies durableTailOps seeded joins and leaves past the snapshot,
// whose LSN it returns. The state it leaves in d, and so d's
// fingerprint, depends only on its arguments (TestDurableFingerprint).
func durableWorkload(d *durable.DurableController, topo *topology.Topology, tenants, groups int, meanVMs float64, seed int64) uint64 {
	_, gs := controlGroups(topo, tenants, groups, groupgen.WVE, meanVMs, seed)
	rng := rand.New(rand.NewSource(seed + 2))
	for _, s := range churn.Specs(gs, rng) {
		if err := d.CreateGroup(s.Key, s.Members); err != nil {
			log.Fatal(err)
		}
	}
	lsn, err := d.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < durableTailOps; i++ {
		g := &gs[rng.Intn(len(gs))]
		key := controller.GroupKey{Tenant: uint32(g.Tenant), Group: g.ID}
		h := g.Hosts[rng.Intn(len(g.Hosts))]
		if rng.Intn(2) == 0 {
			_ = d.Join(key, h, controller.RoleReceiver)
		} else {
			_ = d.Leave(key, h, controller.RoleReceiver)
		}
	}
	return lsn
}
