package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"elmo/internal/chaos"
	"elmo/internal/controller"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

type replicaFixture struct {
	dc  *DurableController
	rs  *ReplicaSet
	inj *chaos.Injector
}

const (
	replLeader    = topology.HostID(0)
	replFollowerA = topology.HostID(8)
	replFollowerB = topology.HostID(17)
)

func newReplicaFixture(t *testing.T, dir string) *replicaFixture {
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
		Dir:       dir,
		NoSync:    true,
		Replicate: rs.Replicator(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &replicaFixture{dc: dc, rs: rs, inj: inj}
}

func TestReplicaSetMirrorsLeader(t *testing.T) {
	fx := newReplicaFixture(t, t.TempDir())
	defer fx.dc.Close()
	rng := rand.New(rand.NewSource(5))
	for _, o := range churnScript(rng, 150, durableTopo().NumHosts()) {
		o.applyDurable(fx.dc)
	}
	if err := fx.rs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fx.dc.ReplicationErr(); err != nil {
		t.Fatalf("replication error: %v", err)
	}
	want := fx.dc.Controller().Fingerprint()
	for _, h := range []topology.HostID{replFollowerA, replFollowerB} {
		f := fx.rs.Follower(h)
		if f.Records() == 0 {
			t.Fatalf("follower %d saw no records", h)
		}
		if got := f.Controller().Fingerprint(); got != want {
			t.Fatalf("follower %d fingerprint %s != leader %s", h, got, want)
		}
	}
}

// TestFailoverUnderChaos crashes the leader host with the chaos
// injector and walks the full failover sequence: heartbeats stop
// arriving, the detector declares the leader dead after DeadAfter
// silent probe rounds, and a warm follower promotes into a new durable
// controller whose state matches the leader's last replicated state.
func TestFailoverUnderChaos(t *testing.T) {
	fx := newReplicaFixture(t, t.TempDir())
	defer fx.dc.Close()
	rng := rand.New(rand.NewSource(9))
	for _, o := range churnScript(rng, 100, durableTopo().NumHosts()) {
		o.applyDurable(fx.dc)
	}
	if err := fx.rs.Sync(); err != nil {
		t.Fatal(err)
	}
	preCrash := fx.dc.Controller().Fingerprint()

	// Heartbeats flow while the leader is alive: no false positive.
	det := &Detector{DeadAfter: 3}
	follower := fx.rs.Follower(replFollowerA)
	for i := 0; i < 5; i++ {
		if err := fx.dc.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		if det.Observe(follower.Records()) {
			t.Fatal("live leader declared dead")
		}
	}

	// Kill the leader's host. Its local WAL keeps working, but nothing
	// reaches the followers any more.
	fx.inj.CrashHost(replLeader)
	_ = fx.dc.Heartbeat() // lost in the fabric

	rounds := 0
	for !det.Observe(follower.Records()) {
		rounds++
		if rounds > 10 {
			t.Fatal("dead leader never detected")
		}
	}
	if rounds < det.DeadAfter-1 {
		t.Fatalf("declared dead after %d rounds, budget %d", rounds, det.DeadAfter)
	}

	// Promote the warm standby.
	promoted, stats, err := Promote(follower, Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if got := promoted.Controller().Fingerprint(); got != preCrash {
		t.Fatalf("promoted fingerprint %s != leader pre-crash %s", got, preCrash)
	}
	if stats.Groups != fx.dc.Controller().NumGroups() {
		t.Fatalf("promoted %d groups, leader had %d", stats.Groups, fx.dc.Controller().NumGroups())
	}

	// The promoted controller accepts new durable ops immediately.
	if err := promoted.CreateGroup(controller.GroupKey{Tenant: 77, Group: 1},
		map[topology.HostID]controller.Role{1: controller.RoleBoth, 40: controller.RoleReceiver}); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteRefusesDirtyDir: promoting into a directory that already
// holds a WAL (e.g. reusing the dead leader's) would replay stale
// records from LSN 1 on top of the standby snapshot. Promote must
// refuse rather than assume a fresh epoch.
func TestPromoteRefusesDirtyDir(t *testing.T) {
	dir := t.TempDir()
	d1, _ := openTest(t, dir)
	if err := d1.CreateGroup(controller.GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]controller.Role{0: controller.RoleBoth, 8: controller.RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := NewFollower(durableTopo(), durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Promote(f, Options{Dir: dir, NoSync: true}); err == nil {
		t.Fatal("promote into a directory with an existing WAL accepted")
	}

	// A snapshot alone (no WAL) is also a stale epoch: refuse.
	snapOnly := t.TempDir()
	d2, _ := openTest(t, snapOnly)
	if err := d2.CreateGroup(controller.GroupKey{Tenant: 1, Group: 2},
		map[topology.HostID]controller.Role{0: controller.RoleBoth, 8: controller.RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(snapOnly, "wal")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Promote(f, Options{Dir: snapOnly, NoSync: true}); err == nil {
		t.Fatal("promote over an existing snapshot accepted")
	}

	// A genuinely fresh directory still works.
	promoted, _, err := Promote(f, Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	promoted.Close()
}

// TestOutOfRangeHostIsNotAPoisonPill is the regression for the
// unvalidated-host bug: a create naming a host outside the topology
// used to be logged and then panic in the topology accessors — on the
// leader while holding its op mutex, on every later recovery of the
// directory, and on every follower the record was streamed to. It is
// now an ordinary failed op everywhere.
func TestOutOfRangeHostIsNotAPoisonPill(t *testing.T) {
	dir := t.TempDir()
	fx := newReplicaFixture(t, dir)
	defer fx.dc.Close()
	bad := controller.GroupKey{Tenant: 1, Group: 1}
	poison := map[topology.HostID]controller.Role{0: controller.RoleSender, 99999: controller.RoleReceiver}
	if err := fx.dc.CreateGroup(bad, poison); err == nil {
		t.Fatal("create with host 99999 on a 64-host fabric succeeded")
	}
	if _, err := fx.dc.InstallBatch([]controller.BatchSpec{{Key: bad, Members: poison}}, controller.BatchOptions{Workers: 4}); err == nil {
		t.Fatal("batch with host 99999 on a 64-host fabric succeeded")
	}
	// The leader keeps serving.
	good := controller.GroupKey{Tenant: 1, Group: 2}
	if err := fx.dc.CreateGroup(good, map[topology.HostID]controller.Role{0: controller.RoleSender, 16: controller.RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if err := fx.dc.Join(good, 99999, controller.RoleReceiver); err == nil {
		t.Fatal("join of host 99999 succeeded")
	}
	if err := fx.rs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fx.dc.ReplicationErr(); err != nil {
		t.Fatalf("replication stalled: %v", err)
	}
	want := fx.dc.Controller().Fingerprint()
	for _, h := range []topology.HostID{replFollowerA, replFollowerB} {
		if got := fx.rs.Follower(h).Controller().Fingerprint(); got != want {
			t.Fatalf("follower %d fingerprint %s != leader %s", h, got, want)
		}
	}
	// Crash and recover the directory holding the three bad records.
	d2, stats := openTest(t, dir)
	defer d2.Close()
	if stats.Replayed != 4 {
		t.Fatalf("replayed %d records, want 4", stats.Replayed)
	}
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != %s", got, want)
	}
	if d2.Controller().Group(bad) != nil || d2.Controller().Group(good) == nil {
		t.Fatal("recovery resurrected the rejected group or lost the good one")
	}
}

// TestReplicateOversizedCreate is the regression for the record-size
// divergence: one CreateGroup whose membership encodes past 64 KiB
// used to fail the propose, silently latch the stream off, and leave
// followers permanently stale. Records of any size must now replicate
// cleanly and recover to the same fingerprint after a crash. Recovery
// and the follower consume the identical record stream — the big
// create, the same create failing as a duplicate, a create naming a
// host outside the topology, a join, a 200-spec batch of 500 members
// each — through one applier, so both must land on the leader's
// fingerprint.
func TestReplicateOversizedCreate(t *testing.T) {
	bigTopo := topology.MustNew(topology.Config{Pods: 1, SpinesPerPod: 4, LeavesPerPod: 96, HostsPerLeaf: 256, CoresPerPlane: 1}) // 24576 hosts
	bigCfg := controller.PaperConfig(0)

	netTopo := durableTopo()
	netCtrl, err := controller.New(netTopo, controller.PaperConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(netTopo, controller.PaperConfig(0).SRuleCapacity)
	fab.SetFailures(netCtrl.Failures())
	rs, err := NewReplicaSet(ReplicaSetConfig{
		Net:       Net(netCtrl, fab),
		Key:       controller.GroupKey{Tenant: 200, Group: 2},
		Leader:    replLeader,
		Followers: []topology.HostID{replFollowerA},
		Window:    64,
		Topo:      bigTopo,
		Cfg:       bigCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dc, _, err := Open(bigTopo, bigCfg, Options{Dir: dir, NoSync: true, Replicate: rs.Replicator()})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	members := make(map[topology.HostID]controller.Role, bigTopo.NumHosts())
	members[0] = controller.RoleBoth
	for h := 1; h < bigTopo.NumHosts(); h++ {
		members[topology.HostID(h)] = controller.RoleReceiver
	}
	spec := controller.PrepareBatch([]controller.BatchSpec{{Key: controller.GroupKey{Tenant: 1, Group: 1}, Members: members}}, 1)[0]
	if n := len(AppendRecord(nil, OpRecord{Type: RecCreate, Key: spec.Key, Members: spec.Members})); n <= 1<<16 {
		t.Fatalf("test membership encodes to %d bytes; not oversized", n)
	}
	if err := dc.CreateGroup(controller.GroupKey{Tenant: 1, Group: 1}, members); err != nil {
		t.Fatal(err)
	}
	// Failing ops are logged and streamed like any other: the leader,
	// replay and followers all fail them in the same CreateGroup.
	if err := dc.CreateGroup(controller.GroupKey{Tenant: 1, Group: 1}, members); err == nil {
		t.Fatal("duplicate oversized create succeeded")
	}
	if err := dc.CreateGroup(controller.GroupKey{Tenant: 1, Group: 2}, map[topology.HostID]controller.Role{
		0: controller.RoleSender, topology.HostID(bigTopo.NumHosts()): controller.RoleReceiver,
	}); err == nil {
		t.Fatal("create with a host outside the topology succeeded")
	}
	// A normal op after the big one: the stream must still be alive.
	if err := dc.Join(controller.GroupKey{Tenant: 1, Group: 1}, 0, controller.RoleBoth); err != nil {
		t.Fatal(err)
	}
	// Many medium specs: one record of about 300 KB.
	specs := make([]controller.BatchSpec, 0, 200)
	for i := 0; i < 200; i++ {
		m := make(map[topology.HostID]controller.Role, 500)
		for j := 0; j < 500; j++ {
			m[topology.HostID(i+j)] = controller.Role(1 + j%3)
		}
		specs = append(specs, controller.BatchSpec{Key: controller.GroupKey{Tenant: 3, Group: uint32(i + 1)}, Members: m})
	}
	if _, err := dc.InstallBatch(specs, controller.BatchOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if n := dc.Controller().NumGroups(); n != 1+len(specs) {
		t.Fatalf("leader holds %d groups, want %d", n, 1+len(specs))
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := dc.ReplicationErr(); err != nil {
		t.Fatalf("replication stalled: %v", err)
	}
	if err := dc.Heartbeat(); err != nil {
		t.Fatalf("heartbeat reports unhealthy leader: %v", err)
	}
	want := dc.Controller().Fingerprint()
	if got := rs.Follower(replFollowerA).Controller().Fingerprint(); got != want {
		t.Fatalf("follower fingerprint %s != leader %s", got, want)
	}

	// And the WAL round-trips the same records on recovery.
	d2, _, err := Open(bigTopo, bigCfg, Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != %s", got, want)
	}
}
