package durable

import (
	"errors"
	"strings"
	"testing"

	"elmo/internal/chaos"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// fencedFixture is the split-brain test bench: a replication plane
// (netCtrl + fab + injector) carrying the WAL stream with lease and
// follower-ack wiring, plus a SEPARATE managed data plane (dp) the
// leader installs groups into with its epoch stamped — the fabric
// whose state the fencing must protect.
type fencedFixture struct {
	dc  *DurableController
	rs  *ReplicaSet
	inj *chaos.Injector
	net *fabricNet // replication-plane controller + fabric
	dp  *fabric.Fabric
	reg *telemetry.Registry
}

func newFencedFixture(t *testing.T, dir string) *fencedFixture {
	t.Helper()
	topo := durableTopo()
	netCfg := controller.PaperConfig(0)
	netCtrl, err := controller.New(topo, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(topo, netCfg.SRuleCapacity)
	fab.SetFailures(netCtrl.Failures())
	inj := chaos.New(chaos.Config{Seed: 1})
	fab.SetInjector(inj)

	rs, err := NewReplicaSet(ReplicaSetConfig{
		Net:       Net(netCtrl, fab),
		Key:       controller.GroupKey{Tenant: 200, Group: 1},
		Leader:    replLeader,
		Followers: []topology.HostID{replFollowerA, replFollowerB},
		Window:    64,
		Topo:      topo,
		Cfg:       durableCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dc, _, err := Open(topo, durableCfg(), Options{
		Dir:          dir,
		NoSync:       true,
		Replicate:    rs.Replicator(),
		Lease:        Lease{MissBudget: 3},
		FollowerAcks: rs.FollowerAcks,
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	dp := fabric.New(topo, netCfg.SRuleCapacity)
	dp.SetMetrics(fabric.NewMetrics(reg))
	return &fencedFixture{dc: dc, rs: rs, inj: inj, net: Net(netCtrl, fab), dp: dp, reg: reg}
}

// fencingRejectedTotal sums the elmo_fencing_rejected_total series in
// the registry across all tiers.
func fencingRejectedTotal(reg *telemetry.Registry) float64 {
	var sum float64
	snap := reg.Snapshot()
	for _, k := range snap.Keys() {
		if strings.HasPrefix(k, "elmo_fencing_rejected_total") {
			sum += snap[k]
		}
	}
	return sum
}

// TestPartitionSoakSplitBrain is the end-to-end split-brain soak (run
// it under -race; `make partition` does): the leader is partitioned —
// NOT crashed — so it stays alive and keeps writing through the whole
// failover. The majority side detects, promotes at the next epoch, and
// fences the data plane; every stale install the old leader attempts
// is rejected and counted; the old leader self-demotes by lease; after
// heal it resyncs from the successor and converges as a follower, and
// the old leader's state, the new leader's state, and the data plane
// all fingerprint identically.
func TestPartitionSoakSplitBrain(t *testing.T) {
	fx := newFencedFixture(t, t.TempDir())
	defer fx.dc.Close()
	topo := durableTopo()
	cfg := durableCfg()

	if fx.dc.Epoch() != 1 {
		t.Fatalf("fresh leader epoch %d, want 1", fx.dc.Epoch())
	}

	// Epoch-1 regime: create groups, install them fenced.
	keys := []controller.GroupKey{
		{Tenant: 7, Group: 1}, {Tenant: 7, Group: 2}, {Tenant: 7, Group: 3},
	}
	members := map[topology.HostID]controller.Role{
		1: controller.RoleBoth, 9: controller.RoleReceiver, 24: controller.RoleReceiver,
	}
	for _, k := range keys {
		if err := fx.dc.CreateGroup(k, members); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.dp.InstallGroupAt(fx.dc.Epoch(), fx.dc.Controller(), k); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy regime: heartbeats ack, lease stays fresh, no detection.
	det := &Detector{DeadAfter: 3}
	follower := fx.rs.Follower(replFollowerA)
	for i := 0; i < 5; i++ {
		if err := fx.dc.Heartbeat(); err != nil {
			t.Fatalf("healthy heartbeat %d: %v", i, err)
		}
		if det.Observe(follower.Records()) {
			t.Fatal("live leader declared dead")
		}
		if fx.dc.LeaseMisses() != 0 {
			t.Fatalf("healthy lease misses %d", fx.dc.LeaseMisses())
		}
	}

	// Partition the leader. It is alive — its WAL keeps accepting
	// appends — but nothing crosses its NIC in either direction.
	fx.inj.Partition(replLeader)
	preFailover := fx.dc.Controller().Fingerprint()
	lsnAtCut := fx.dc.LastLSN()

	// The old leader heartbeats into the void; the follower's detector
	// and the leader's own lease burn down in the same round currency.
	var hbErr error
	for i := 0; i < 5; i++ {
		hbErr = fx.dc.Heartbeat()
		det.Observe(follower.Records())
	}
	if !det.Observe(follower.Records()) {
		t.Fatal("partitioned leader never declared dead")
	}
	if !errors.Is(hbErr, ErrLeaseExpired) || !errors.Is(hbErr, ErrNotLeader) {
		t.Fatalf("lease did not expire: %v", hbErr)
	}
	if fx.dc.LastLSN() <= lsnAtCut {
		t.Fatal("old leader stopped writing its WAL — it must stay alive through failover")
	}
	if err := fx.dc.CreateGroup(controller.GroupKey{Tenant: 8, Group: 1}, members); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("demoted leader accepted a mutation: %v", err)
	}

	// Majority side: a second replica set for the new term (the old
	// leader will be re-adopted into it after heal), then promote.
	rs2, err := NewReplicaSet(ReplicaSetConfig{
		Net:       fx.net,
		Key:       controller.GroupKey{Tenant: 200, Group: 2},
		Leader:    replFollowerA,
		Followers: []topology.HostID{replLeader},
		Window:    64,
		Topo:      topo,
		Cfg:       cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	promoted, stats, err := Promote(follower, Options{
		Dir:          t.TempDir(),
		NoSync:       true,
		Replicate:    rs2.Replicator(),
		Lease:        Lease{MissBudget: 3},
		FollowerAcks: rs2.FollowerAcks,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.Epoch() != 2 || stats.Epoch != 2 {
		t.Fatalf("promoted epoch %d (stats %d), want 2", promoted.Epoch(), stats.Epoch)
	}
	if got := promoted.Controller().Fingerprint(); got != preFailover {
		t.Fatalf("promoted fingerprint %s != pre-failover %s", got, preFailover)
	}

	// Takeover: fence the whole data plane at epoch 2 FIRST, then
	// mutate and reinstall under the new term.
	fx.dp.AnnounceEpoch(promoted.Epoch())
	if err := promoted.Join(keys[0], 40, controller.RoleReceiver); err != nil {
		t.Fatal(err)
	}
	extra := controller.GroupKey{Tenant: 7, Group: 4}
	if err := promoted.CreateGroup(extra, members); err != nil {
		t.Fatal(err)
	}
	for _, k := range append(append([]controller.GroupKey{}, keys...), extra) {
		if _, err := fx.dp.InstallGroupAt(promoted.Epoch(), promoted.Controller(), k); err != nil {
			t.Fatal(err)
		}
	}
	fpTakeover := fx.dp.Fingerprint()
	rejectedBefore := fx.dp.FencingRejections()

	// Split brain: the old leader — alive, partitioned, still at epoch
	// 1 — pushes its stale view at the data plane. Every attempt must
	// be rejected, counted, and leave the state bit-for-bit untouched.
	var se *dataplane.StaleEpochError
	if _, err := fx.dp.InstallGroupAt(fx.dc.Epoch(), fx.dc.Controller(), keys[0]); !errors.As(err, &se) {
		t.Fatalf("stale install not fenced: %v", err)
	} else if se.Epoch != 1 || se.Current != 2 {
		t.Fatalf("StaleEpochError = %+v", se)
	}
	if err := fx.dp.UninstallGroupAt(fx.dc.Epoch(), fx.dc.Controller(), keys[1]); !errors.Is(err, dataplane.ErrStaleEpoch) {
		t.Fatalf("stale uninstall not fenced: %v", err)
	}
	if got := fx.dp.FencingRejections(); got <= rejectedBefore {
		t.Fatalf("fencing rejections %d, want > %d", got, rejectedBefore)
	}
	if got := fencingRejectedTotal(fx.reg); got <= 0 {
		t.Fatalf("elmo_fencing_rejected_total = %v, want > 0", got)
	}
	if fx.dp.Fingerprint() != fpTakeover {
		t.Fatal("stale-epoch install changed data-plane state")
	}
	// The rejection carries the successor's epoch: feeding it back
	// keeps the old leader demoted (it already lost its lease).
	if err := fx.dc.ObserveEpoch(se.Current); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("ObserveEpoch(%d) = %v, want not-leader", se.Current, err)
	}

	// Heal. The old leader resyncs from the successor's state and is
	// adopted into the new replica set as a follower.
	fx.inj.Heal()
	epoch, state, err := promoted.ResyncState()
	if err != nil {
		t.Fatal(err)
	}
	rejoined, err := NewFollowerFromState(topo, cfg, epoch, state)
	if err != nil {
		t.Fatal(err)
	}
	if rejoined.Epoch() != 2 {
		t.Fatalf("rejoined follower epoch %d, want 2", rejoined.Epoch())
	}
	if err := rs2.AdoptFollower(replLeader, rejoined); err != nil {
		t.Fatal(err)
	}

	// The new leader keeps mutating; the rejoined follower tracks it.
	last := controller.GroupKey{Tenant: 7, Group: 5}
	if err := promoted.CreateGroup(last, members); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.dp.InstallGroupAt(promoted.Epoch(), promoted.Controller(), last); err != nil {
		t.Fatal(err)
	}
	if err := rs2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := promoted.Heartbeat(); err != nil {
		t.Fatalf("post-heal heartbeat: %v", err)
	}
	if promoted.LeaseMisses() != 0 {
		t.Fatalf("post-heal lease misses %d", promoted.LeaseMisses())
	}

	// Convergence: old leader (as follower), new leader, and the data
	// plane all agree.
	want := promoted.Controller().Fingerprint()
	if got := rejoined.Controller().Fingerprint(); got != want {
		t.Fatalf("rejoined follower fingerprint %s != new leader %s", got, want)
	}
	ref := fabric.New(topo, cfg.SRuleCapacity)
	for _, k := range []controller.GroupKey{keys[0], keys[1], keys[2], extra, last} {
		if _, err := ref.InstallGroupAt(promoted.Epoch(), promoted.Controller(), k); err != nil {
			t.Fatal(err)
		}
	}
	if fx.dp.Fingerprint() != ref.Fingerprint() {
		t.Fatal("data-plane fingerprint diverged from the new leader's state")
	}
}

// TestDeposedByFencingRejection exercises the rejection-feedback path
// in isolation (no lease): a leader that learns of a higher epoch from
// a StaleEpochError steps down immediately with ErrDeposed.
func TestDeposedByFencingRejection(t *testing.T) {
	topo := durableTopo()
	cfg := durableCfg()
	dc, _, err := Open(topo, cfg, Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	key := controller.GroupKey{Tenant: 3, Group: 1}
	if err := dc.CreateGroup(key, map[topology.HostID]controller.Role{
		1: controller.RoleBoth, 9: controller.RoleReceiver,
	}); err != nil {
		t.Fatal(err)
	}

	dp := fabric.New(topo, cfg.SRuleCapacity)
	dp.AnnounceEpoch(4) // a successor took over out-of-band

	var se *dataplane.StaleEpochError
	if _, err := dp.InstallGroupAt(dc.Epoch(), dc.Controller(), key); !errors.As(err, &se) {
		t.Fatalf("install at epoch %d not fenced: %v", dc.Epoch(), err)
	}
	if err := dc.ObserveEpoch(se.Current); !errors.Is(err, ErrDeposed) {
		t.Fatalf("ObserveEpoch = %v, want ErrDeposed", err)
	}
	if err := dc.CreateGroup(controller.GroupKey{Tenant: 3, Group: 2}, nil); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("deposed leader accepted a mutation: %v", err)
	}
	if err := dc.Heartbeat(); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed heartbeat = %v, want ErrDeposed", err)
	}
	// Deposition is one-way: observing its own epoch later cannot
	// restore leadership.
	if err := dc.ObserveEpoch(dc.Epoch()); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("deposition not latched: %v", err)
	}
}
