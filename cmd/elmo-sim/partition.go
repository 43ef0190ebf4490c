package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"elmo/internal/chaos"
	"elmo/internal/churn"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/durable"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/topology"
)

// runPartition narrates the split-brain story: the leader is isolated
// by a symmetric partition — alive, writing, and convinced it still
// leads — while the majority side detects the silence, promotes a
// standby at the next leadership epoch, and fences the data plane so
// every stale install the old leader attempts bounces off. After the
// partition heals, the deposed leader resyncs from the successor and
// rejoins as a follower.
func runPartition(topoCfg topology.Config, tenants, groups, srules int, meanVMs float64, seed int64) {
	topo := topology.MustNew(topoCfg)
	cfg := paperController(0, srules)
	dir, err := os.MkdirTemp("", "elmo-partition-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Replication plane: leader host plus one warm standby, multicast
	// over a fabric with a chaos injector on every link.
	netCtrl, err := controller.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fab := fabric.New(topo, cfg.SRuleCapacity)
	fab.SetFailures(netCtrl.Failures())
	inj := chaos.New(chaos.Config{Seed: uint64(seed)})
	fab.SetInjector(inj)
	leader := topology.HostID(0)
	standby := topology.HostID(topo.NumHosts() / 2)
	rs, err := durable.NewReplicaSet(durable.ReplicaSetConfig{
		Net:       durable.Net(netCtrl, fab),
		Key:       controller.GroupKey{Tenant: 4000, Group: 2},
		Leader:    leader,
		Followers: []topology.HostID{standby},
		Window:    64,
		Topo:      topo,
		Cfg:       cfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	const missBudget = 3
	d, _, err := durable.Open(topo, cfg, durable.Options{
		Dir:          dir,
		Replicate:    rs.Replicator(),
		Lease:        durable.Lease{MissBudget: missBudget},
		FollowerAcks: rs.FollowerAcks,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== fenced leadership: partition, epoch takeover, lease demotion, rejoin ===\n")
	fmt.Printf("leader host %d (epoch %d), warm standby host %d, lease budget %d heartbeat rounds\n\n",
		leader, d.Epoch(), standby, missBudget)

	// Phase 1: epoch-1 regime — durable groups, replicated, installed
	// into the data plane with the leader's epoch stamped.
	dep, err := placement.Place(topo, placement.Config{
		Tenants: tenants, VMsPerHost: 20, MinVMs: 5,
		MaxVMs:  maxVMsFor(topoCfg, 1),
		MeanVMs: effectiveMeanVMs(meanVMs, topoCfg, tenants),
		P:       1, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: groups, MinSize: 5, Dist: groupgen.WVE, Seed: seed + 1})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 2))
	keys := make([]controller.GroupKey, 0, len(gs))
	start := time.Now()
	for _, s := range churn.Specs(gs, rng) {
		if err := d.CreateGroup(s.Key, s.Members); err != nil {
			log.Fatal(err)
		}
		keys = append(keys, s.Key)
	}
	dp := fabric.New(topo, cfg.SRuleCapacity)
	dpGroups := 20
	if dpGroups > len(keys) {
		dpGroups = len(keys)
	}
	for _, k := range keys[:dpGroups] {
		if _, err := dp.InstallGroupAt(d.Epoch(), d.Controller(), k); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("created %d groups durably in %v; %d installed into the data plane at epoch %d\n",
		len(keys), time.Since(start).Round(time.Millisecond), dpGroups, d.Epoch())

	// Healthy heartbeats: follower acks refresh the lease every round.
	det := &durable.Detector{DeadAfter: 3}
	f := rs.Follower(standby)
	for i := 0; i < 3; i++ {
		if err := d.Heartbeat(); err != nil {
			log.Fatal(err)
		}
		det.Observe(f.Records())
	}
	fmt.Printf("heartbeats flowing: follower acked, lease misses %d\n\n", d.LeaseMisses())

	// Phase 2: the cut. The leader is NOT crashed — its WAL keeps
	// accepting writes — but nothing crosses its NIC in either
	// direction.
	fmt.Printf("--- partition: host %d isolated bidirectionally (process stays alive) ---\n", leader)
	inj.Partition(leader)
	lsnAtCut := d.LastLSN()
	var hbErr error
	rounds := 0
	for {
		rounds++
		if det.Observe(f.Records()) {
			break
		}
		hbErr = d.Heartbeat()
		if rounds > 100 {
			log.Fatal("isolated leader never detected")
		}
	}
	fmt.Printf("standby: leader silent for %d probe rounds -> declared dead\n", rounds)
	for i := 0; hbErr == nil && i < missBudget; i++ {
		hbErr = d.Heartbeat() // burn the remaining lease budget
	}
	if !errors.Is(hbErr, durable.ErrLeaseExpired) {
		log.Fatalf("leader lease did not expire: %v", hbErr)
	}
	fmt.Printf("old leader: no follower ack for %d rounds -> lease expired, self-demoted to read-only\n", missBudget)
	fmt.Printf("old leader kept writing through the cut: WAL advanced %d records after isolation\n\n", d.LastLSN()-lsnAtCut)

	// Phase 3: takeover at the next epoch, fence the data plane first.
	promoted, pstats, err := durable.Promote(f, durable.Options{Dir: dir + "-promoted"})
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir + "-promoted")
	defer promoted.Close()
	dp.AnnounceEpoch(promoted.Epoch())
	fmt.Printf("--- takeover: standby promoted at epoch %d (%d groups), epoch announced fabric-wide ---\n",
		promoted.Epoch(), pstats.Groups)

	// The deposed leader, still alive and at epoch 1, pushes its stale
	// view at the data plane.
	var se *dataplane.StaleEpochError
	if _, err := dp.InstallGroupAt(d.Epoch(), d.Controller(), keys[0]); errors.As(err, &se) {
		fmt.Printf("old leader install at epoch %d: REJECTED by %s (floor %d), elmo_fencing_rejected_total=%d\n",
			se.Epoch, se.Device, se.Current, dp.FencingRejections())
	} else {
		log.Fatalf("stale-epoch install was not fenced: %v", err)
	}
	if err := d.ObserveEpoch(se.Current); !errors.Is(err, durable.ErrNotLeader) {
		log.Fatalf("rejection feedback did not demote: %v", err)
	}
	fmt.Printf("old leader observed epoch %d from the rejection -> steps down for good\n\n", se.Current)

	// Phase 4: heal, resync, rejoin as follower.
	fmt.Println("--- heal: partition lifted ---")
	inj.Heal()
	epoch, state, err := promoted.ResyncState()
	if err != nil {
		log.Fatal(err)
	}
	rejoined, err := durable.NewFollowerFromState(topo, cfg, epoch, state)
	if err != nil {
		log.Fatal(err)
	}
	wantFP := promoted.Controller().Fingerprint()
	gotFP := rejoined.Controller().Fingerprint()
	if gotFP != wantFP {
		log.Fatalf("rejoined follower fingerprint %s != new leader %s", gotFP, wantFP)
	}
	fmt.Printf("old leader resynced from epoch-%d snapshot and rejoined as follower\n", epoch)
	fmt.Printf("fingerprints converged: new leader %s == rejoined follower %s\n",
		wantFP[:16], gotFP[:16])
	fmt.Println("split brain prevented: one epoch, one writer, zero stale installs applied")
}
