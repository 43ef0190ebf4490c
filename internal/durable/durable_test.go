package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

func durableTopo() *topology.Topology { return topology.MustNew(topology.PaperExample()) }

func durableCfg() controller.Config { return controller.PaperConfig(0) }

func openTest(t *testing.T, dir string) (*DurableController, *RecoveryStats) {
	t.Helper()
	d, stats, err := Open(durableTopo(), durableCfg(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, stats
}

// op is one scripted mutation, applied identically to the durable
// controller and to an in-memory reference.
type op struct {
	kind    byte
	key     controller.GroupKey
	host    topology.HostID
	role    controller.Role
	members map[topology.HostID]controller.Role
	specs   []controller.BatchSpec
}

func (o op) applyDurable(d *DurableController) {
	switch o.kind {
	case RecCreate:
		_ = d.CreateGroup(o.key, o.members)
	case RecJoin:
		_ = d.Join(o.key, o.host, o.role)
	case RecLeave:
		_ = d.Leave(o.key, o.host, o.role)
	case RecRemove:
		_ = d.RemoveGroup(o.key)
	case RecBatch:
		_, _ = d.InstallBatch(o.specs, controller.BatchOptions{Workers: 1})
	}
}

func (o op) applyPlain(c *controller.Controller) {
	switch o.kind {
	case RecCreate:
		_, _ = c.CreateGroup(o.key, o.members)
	case RecJoin:
		_ = c.Join(o.key, o.host, o.role)
	case RecLeave:
		_ = c.Leave(o.key, o.host, o.role)
	case RecRemove:
		_ = c.RemoveGroup(o.key)
	case RecBatch:
		_, _ = c.InstallBatch(o.specs, controller.BatchOptions{Workers: 1})
	}
}

// churnScript generates n ops, deliberately including some that fail
// (duplicate creates, joins to missing groups) — replay must reproduce
// failures as faithfully as successes.
func churnScript(rng *rand.Rand, n, hosts int) []op {
	ops := make([]op, 0, n)
	newMembers := func() map[topology.HostID]controller.Role {
		m := map[topology.HostID]controller.Role{}
		size := 2 + rng.Intn(8)
		for len(m) < size {
			m[topology.HostID(rng.Intn(hosts))] = controller.Role(1 + rng.Intn(3))
		}
		return m
	}
	for i := 0; i < n; i++ {
		key := controller.GroupKey{Tenant: uint32(1 + rng.Intn(4)), Group: uint32(1 + rng.Intn(n/4+2))}
		switch r := rng.Intn(100); {
		case r < 30:
			ops = append(ops, op{kind: RecCreate, key: key, members: newMembers()})
		case r < 60:
			ops = append(ops, op{kind: RecJoin, key: key,
				host: topology.HostID(rng.Intn(hosts)), role: controller.Role(1 + rng.Intn(3))})
		case r < 80:
			ops = append(ops, op{kind: RecLeave, key: key,
				host: topology.HostID(rng.Intn(hosts)), role: controller.Role(1 + rng.Intn(3))})
		case r < 92:
			ops = append(ops, op{kind: RecRemove, key: key})
		default:
			specs := make([]controller.BatchSpec, 0, 4)
			for j := 0; j < 4; j++ {
				specs = append(specs, controller.BatchSpec{
					Key:     controller.GroupKey{Tenant: 9, Group: uint32(i*10 + j + 1)},
					Members: newMembers(),
				})
			}
			ops = append(ops, op{kind: RecBatch, specs: specs})
		}
	}
	return ops
}

func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	topo := durableTopo()
	ops := churnScript(rng, 200, topo.NumHosts())

	d1, _ := openTest(t, dir)
	ref, _ := controller.New(topo, durableCfg())
	for _, o := range ops {
		o.applyDurable(d1)
		o.applyPlain(ref)
	}
	want := d1.Controller().Fingerprint()
	if want != ref.Fingerprint() {
		t.Fatal("durable and plain controller diverge before any crash")
	}
	// Crash: drop d1 without Close. Acked ops are on disk.
	d2, stats := openTest(t, dir)
	defer d2.Close()
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != %s", got, want)
	}
	if stats.Replayed == 0 {
		t.Fatal("no records replayed")
	}
	if stats.Groups != ref.NumGroups() {
		t.Fatalf("recovered %d groups, want %d", stats.Groups, ref.NumGroups())
	}
}

func TestDurableSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	topo := durableTopo()
	ops := churnScript(rng, 300, topo.NumHosts())

	d1, _ := openTest(t, dir)
	for i, o := range ops {
		o.applyDurable(d1)
		if i == 150 {
			lsn, err := d1.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if lsn == 0 {
				t.Fatal("snapshot covered nothing")
			}
		}
	}
	want := d1.Controller().Fingerprint()

	d2, stats := openTest(t, dir)
	defer d2.Close()
	if stats.SnapshotBytes == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatalf("post-snapshot recovery fingerprint %s != %s", got, want)
	}
}

func TestDurableTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	d1, _ := openTest(t, dir)
	if err := d1.CreateGroup(controller.GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]controller.Role{0: controller.RoleBoth, 40: controller.RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	want := d1.Controller().Fingerprint()

	// Simulate a torn write: garbage at the tail of the last segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, _ := openTest(t, dir)
	defer d2.Close()
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatal("torn tail changed recovered state")
	}
	// The new instance can keep appending past the truncated tail.
	if err := d2.Join(controller.GroupKey{Tenant: 1, Group: 1}, 56, controller.RoleReceiver); err != nil {
		t.Fatal(err)
	}
}

func TestDurableCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	d1, _ := openTest(t, dir)
	if err := d1.CreateGroup(controller.GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]controller.Role{0: controller.RoleBoth, 40: controller.RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(durableTopo(), durableCfg(), Options{Dir: dir, NoSync: true}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestDurableSoakCrashMidChurn is the satellite soak: run a churn
// script against a durable controller, crash and restart it at several
// arbitrary points (with snapshots interleaved), and require the final
// state to be byte-identical to a never-crashed replay of the same
// script.
func TestDurableSoakCrashMidChurn(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1234))
	topo := durableTopo()
	const total = 600
	ops := churnScript(rng, total, topo.NumHosts())

	ref, _ := controller.New(topo, durableCfg())
	for _, o := range ops {
		o.applyPlain(ref)
	}

	crashAt := map[int]bool{97: true, 205: true, 206: true, 399: true, 598: true}
	snapAt := map[int]bool{150: true, 400: true}
	d, _ := openTest(t, dir)
	for i, o := range ops {
		o.applyDurable(d)
		if snapAt[i] {
			if _, err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if crashAt[i] {
			// Crash without Close and recover.
			d, _ = openTest(t, dir)
		}
	}
	defer d.Close()
	if got, want := d.Controller().Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("soak fingerprint %s != never-crashed %s", got, want)
	}
	if d.Controller().NumGroups() != ref.NumGroups() {
		t.Fatalf("soak groups %d != %d", d.Controller().NumGroups(), ref.NumGroups())
	}
}

func TestDurableBatchReplay(t *testing.T) {
	dir := t.TempDir()
	topo := durableTopo()
	n := 306
	specs := make([]controller.BatchSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, controller.BatchSpec{
			Key: controller.GroupKey{Tenant: 2, Group: uint32(i + 1)},
			Members: map[topology.HostID]controller.Role{
				topology.HostID(i % topo.NumHosts()):        controller.RoleBoth,
				topology.HostID((i + 13) % topo.NumHosts()): controller.RoleReceiver,
			},
		})
	}
	d1, _ := openTest(t, dir)
	if _, err := d1.InstallBatch(specs, controller.BatchOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := d1.Controller().Fingerprint()

	d2, stats := openTest(t, dir)
	defer d2.Close()
	if stats.Groups != n || stats.Replayed != 1 {
		t.Fatalf("replayed %d groups from %d records, want %d from 1", stats.Groups, stats.Replayed, n)
	}
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatal("batch replay diverged")
	}
}

// TestDurableTornBatchTail: a batch is one WAL record, so a crash while
// it is being written leaves a torn tail, which recovery drops whole —
// wherever the cut falls inside the record, none of the batch's groups
// come back — and the log stays clean for the next op and the recovery
// after it.
func TestDurableTornBatchTail(t *testing.T) {
	specsFor := func(tenant uint32, n int) []controller.BatchSpec {
		specs := make([]controller.BatchSpec, 0, n)
		for i := 0; i < n; i++ {
			specs = append(specs, controller.BatchSpec{
				Key:     controller.GroupKey{Tenant: tenant, Group: uint32(i + 1)},
				Members: map[topology.HostID]controller.Role{topology.HostID(i % 64): controller.RoleBoth},
			})
		}
		return specs
	}
	torn := specsFor(9, 306)
	if n := len(AppendRecord(nil, OpRecord{Type: RecBatch, Specs: controller.PrepareBatch(torn, 1)})); n <= 2000 {
		t.Fatalf("batch record is %d bytes; every cut must land inside it", n)
	}
	noTorn := func(t *testing.T, c *controller.Controller) {
		t.Helper()
		for _, k := range c.GroupKeys() {
			if k.Tenant == 9 {
				t.Fatalf("torn batch's group %v recovered", k)
			}
		}
	}
	for _, cut := range []int64{1, 100, 2000} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			d1, _ := openTest(t, dir)
			if err := d1.CreateGroup(controller.GroupKey{Tenant: 1, Group: 1},
				map[topology.HostID]controller.Role{0: controller.RoleBoth, 40: controller.RoleReceiver}); err != nil {
				t.Fatal(err)
			}
			if _, err := d1.InstallBatch(torn, controller.BatchOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			if err := d1.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}

			d2, stats := openTest(t, dir)
			if stats.Replayed != 1 || stats.Groups != 1 {
				t.Fatalf("recovered %d groups from %d records, want 1 from 1", stats.Groups, stats.Replayed)
			}
			noTorn(t, d2.Controller())
			fresh := specsFor(5, 10)
			if _, err := d2.InstallBatch(fresh, controller.BatchOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			want := d2.Controller().Fingerprint()
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}

			d3, stats := openTest(t, dir)
			defer d3.Close()
			if stats.Replayed != 2 {
				t.Fatalf("second recovery replayed %d records, want 2", stats.Replayed)
			}
			if got := d3.Controller().Fingerprint(); got != want {
				t.Fatalf("fingerprint %s != %s", got, want)
			}
			noTorn(t, d3.Controller())
			if n := d3.Controller().NumGroups(); n != 1+len(fresh) {
				t.Fatalf("recovered %d groups, want %d", n, 1+len(fresh))
			}
		})
	}
}

// TestDurableOpsShareFsync: ops serialize on the controller's mutex
// only up to their commit, so concurrent Join/Leave callers share
// fsyncs — fewer commit rounds than ops — and a reopen still recovers
// the live state.
func TestDurableOpsShareFsync(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	d, _, err := Open(durableTopo(), durableCfg(), Options{Dir: dir, Registry: reg}) // real fsync
	if err != nil {
		t.Fatal(err)
	}
	const callers, each = 8, 100
	for c := 0; c < callers; c++ {
		if err := d.CreateGroup(controller.GroupKey{Tenant: 1, Group: uint32(c + 1)},
			map[topology.HostID]controller.Role{topology.HostID(c): controller.RoleBoth}); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.Snapshot().Get("elmo_wal_batches_total")
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key, host := controller.GroupKey{Tenant: 1, Group: uint32(c + 1)}, topology.HostID(32+c)
			for i := 0; i < each; i++ {
				op := d.Join
				if i%2 == 1 {
					op = d.Leave
				}
				if err := op(key, host, controller.RoleReceiver); err != nil {
					t.Errorf("caller %d op %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	rounds := reg.Snapshot().Get("elmo_wal_batches_total") - before
	if rounds <= 0 || rounds >= callers*each {
		t.Fatalf("%v commit rounds for %d ops; expected ops to share fsyncs", rounds, callers*each)
	}
	t.Logf("%v commit rounds for %d ops", rounds, callers*each)
	want := d.Controller().Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _ := openTest(t, dir)
	defer d2.Close()
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != live %s", got, want)
	}
}

// TestDurableConcurrentSnapshots races Snapshot calls against live
// mutations: serialization must guarantee the snapshot on disk always
// covers every segment any snapshot's truncation removed, so recovery
// never hits an LSN gap.
func TestDurableConcurrentSnapshots(t *testing.T) {
	dir := t.TempDir()
	d1, _, err := Open(durableTopo(), durableCfg(), Options{Dir: dir, NoSync: true, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d1.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		_ = d1.CreateGroup(controller.GroupKey{Tenant: 4, Group: uint32(i + 1)},
			map[topology.HostID]controller.Role{topology.HostID(i % 64): controller.RoleBoth, topology.HostID((i + 7) % 64): controller.RoleReceiver})
	}
	close(stop)
	wg.Wait()
	want := d1.Controller().Fingerprint()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _ := openTest(t, dir)
	defer d2.Close()
	if got := d2.Controller().Fingerprint(); got != want {
		t.Fatalf("recovery after racing snapshots: %s != %s", got, want)
	}
}

// TestOpenFreshNestedDirectory opens, with sync on, a durable controller
// in a directory that does not exist yet, two levels down: recovery
// reads the missing log as an empty one and the WAL makes the directory
// (durably: wal's TestOpenSyncsNewDirectories), and a reopen recovers
// the group created in it.
func TestOpenFreshNestedDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data", "elmo")
	d, stats, err := Open(durableTopo(), durableCfg(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 || stats.Groups != 0 {
		t.Fatalf("fresh directory recovered %+v", stats)
	}
	key := controller.GroupKey{Tenant: 1, Group: 1}
	if err := d.CreateGroup(key, map[topology.HostID]controller.Role{0: controller.RoleBoth, 9: controller.RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, stats, err := Open(durableTopo(), durableCfg(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if stats.Replayed != 1 || stats.Groups != 1 {
		t.Fatalf("reopen recovered %+v, want the one create", stats)
	}
}
