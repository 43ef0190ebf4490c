package controller

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"elmo/internal/topology"
)

// bulkState installs n deterministic groups on the benchmark's 2,048-host
// fabric (8 pods of 16 leaves of 16 hosts) under the paper
// configuration: 8–63 members each (about the 33 of the benchmark's bulk
// install), drawn from a window of 512 consecutive hosts, so a group
// spans one to three pods.
func bulkState(tb testing.TB, n int) *Controller {
	tb.Helper()
	topo := topology.MustNew(topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4})
	c, err := New(topo, PaperConfig(0))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2019))
	specs := make([]BatchSpec, n)
	for i := range specs {
		base := rng.Intn(topo.NumHosts() - 512)
		size := 8 + rng.Intn(56)
		members := map[topology.HostID]Role{topology.HostID(base): RoleBoth}
		for len(members) < size {
			members[topology.HostID(base+rng.Intn(512))] = Role(1 + rng.Intn(3))
		}
		specs[i] = BatchSpec{Key: GroupKey{Tenant: uint32(1 + i%50), Group: uint32(i)}, Members: members}
	}
	if _, err := c.InstallBatch(specs, BatchOptions{}); err != nil {
		tb.Fatal(err)
	}
	return c
}

// bulkStateGolden is the sha256 of the WriteState stream of
// bulkState(8*stateChunkGroups+37), computed with the single-buffer
// serial writer that preceded chunked writing: the chunked writer must
// reproduce it at every worker count.
const bulkStateGolden = "d8111307b57cda5d0e6e7152307434d9b4da8b73c634c3278335ff7a6c6f0b9d"

// failingWriter accepts left bytes, then fails every write.
type failingWriter struct{ left int }

var errWriteFailed = errors.New("write failed")

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errWriteFailed
	}
	f.left -= len(p)
	return len(p), nil
}

// TestWriteStateSameBytesAnyProcs pins the state stream across worker
// counts: GOMAXPROCS is set here, so a one-CPU runner still runs the
// parallel writer. The first run (one P) is the inline loop.
func TestWriteStateSameBytesAnyProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	many := 8*stateChunkGroups + 37
	var manyState *Controller
	for _, n := range []int{many, stateChunkGroups / 2, 0} {
		c := bulkState(t, n)
		if n == many {
			manyState = c
		}
		var want []byte
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			var buf bytes.Buffer
			if err := c.WriteState(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%d groups: GOMAXPROCS=%d wrote %d bytes that differ from GOMAXPROCS=1's %d", n, procs, buf.Len(), len(want))
			}
		}
		if n != many {
			continue
		}
		if sum := sha256.Sum256(want); hex.EncodeToString(sum[:]) != bulkStateGolden {
			t.Fatalf("%d-group stream hash %x, want %s", n, sum, bulkStateGolden)
		}
	}

	// A failing writer: the error comes back, and no worker outlives the
	// call or keeps the read lock.
	var full bytes.Buffer
	if err := manyState.WriteState(&full); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	before := runtime.NumGoroutine()
	for _, left := range []int{0, 1, full.Len() / 3, full.Len() - 1} {
		if err := manyState.WriteState(&failingWriter{left: left}); !errors.Is(err, errWriteFailed) {
			t.Fatalf("writer failing after %d bytes: WriteState returned %v", left, err)
		}
	}
	// Takes the write lock and writes the group map: under -race, a
	// worker still reading it would be reported.
	if err := manyState.RemoveGroup(manyState.GroupKeys()[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after failed writes, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// failOnWrite fails its k-th Write and every later one, counting the
// calls.
type failOnWrite struct{ k, calls int }

func (f *failOnWrite) Write(p []byte) (int, error) {
	if f.calls++; f.calls >= f.k {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestWriteStateStopsAtFirstError: at 1, 2 and 4 Ps, a writer failing
// on its k-th Write — the header, the first chunk, one mid-stream or
// the last — gets that error back, is not written to after it, and no
// worker outlives the call.
func TestWriteStateStopsAtFirstError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	c := bulkState(t, 8*stateChunkGroups+37)
	writes := 1 + 9 // the header, then one per chunk
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		for _, k := range []int{1, 2, writes / 2, writes} {
			f := &failOnWrite{k: k}
			if err := c.WriteState(f); !errors.Is(err, errWriteFailed) || f.calls != k {
				t.Fatalf("GOMAXPROCS=%d, write %d fails: WriteState returned %v after %d writes", procs, k, err, f.calls)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines after failed writes, %d before", procs, runtime.NumGoroutine(), before)
			}
		}
	}
}

// TestMembersStaySortedUnderChurn runs a seeded Join/Leave sequence —
// role splits, whole leaves, and joins rolled back on a full legacy
// table — against a map oracle, checking the member slice and a state
// round trip after every op.
func TestMembersStaySortedUnderChurn(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LegacyLeaves = []topology.LeafID{7}
	cfg.SRuleCapacity = 1
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 holds the only s-rule slot of legacy leaf 7, so a receiver
	// joining group 2 there must roll back.
	if _, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 1},
		map[topology.HostID]Role{0: RoleBoth, 57: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 1, Group: 2}
	oracle := map[topology.HostID]Role{3: RoleBoth, 20: RoleReceiver}
	if _, err := c.CreateGroup(key, oracle); err != nil {
		t.Fatal(err)
	}
	hostsOf := func(pred func(Role) bool) []topology.HostID {
		hosts := []topology.HostID{}
		for h, r := range oracle {
			if pred(r) {
				hosts = append(hosts, h)
			}
		}
		slices.Sort(hosts)
		return hosts
	}
	set := func(h topology.HostID, r Role) {
		if r == 0 {
			delete(oracle, h)
		} else {
			oracle[h] = r
		}
	}
	rng := rand.New(rand.NewSource(5))
	rollbacks := 0
	for op := 0; op < 400; op++ {
		h := topology.HostID(rng.Intn(topo.NumHosts()))
		role := Role(1 + rng.Intn(3))
		old := oracle[h]
		var err error
		var wantErr bool
		if rng.Intn(2) == 0 {
			err = c.Join(key, h, role)
			// A new receiver on the legacy leaf needs its full table.
			if wantErr = topo.HostLeaf(h) == 7 && role.CanReceive() && !old.CanReceive(); wantErr {
				rollbacks++
			} else {
				set(h, old|role)
			}
		} else {
			err = c.Leave(key, h, role)
			if wantErr = old&role == 0; !wantErr {
				set(h, old&^role)
			}
		}
		if (err != nil) != wantErr {
			t.Fatalf("op %d (host %d role %d): err = %v, want error %t", op, h, role, err, wantErr)
		}

		g := c.Group(key)
		for i, m := range g.Members {
			if m.Role == 0 || (i > 0 && g.Members[i-1].Host >= m.Host) {
				t.Fatalf("op %d: members not strictly ascending with roles: %v", op, g.Members)
			}
		}
		if !slices.Equal(g.Members, membersOf(oracle)) {
			t.Fatalf("op %d: members %v, oracle %v", op, g.Members, oracle)
		}
		if got, want := g.Receivers(), hostsOf(Role.CanReceive); !slices.Equal(got, want) {
			t.Fatalf("op %d: receivers %v, want %v", op, got, want)
		}
		if got, want := g.Senders(), hostsOf(Role.CanSend); !slices.Equal(got, want) {
			t.Fatalf("op %d: senders %v, want %v", op, got, want)
		}
		var buf bytes.Buffer
		if err := c.WriteState(&buf); err != nil {
			t.Fatal(err)
		}
		back, _ := New(topo, cfg)
		if err := back.ReadState(&buf); err != nil {
			t.Fatalf("op %d: ReadState: %v", op, err)
		}
		if back.Fingerprint() != c.Fingerprint() || !slices.Equal(back.Group(key).Members, g.Members) {
			t.Fatalf("op %d: state round trip changed the group", op)
		}
	}
	if rollbacks == 0 {
		t.Fatal("no join was rolled back on the legacy leaf")
	}
}

// BenchmarkWriteState serializes a 5,000-group state (at the P count
// of -cpu).
func BenchmarkWriteState(b *testing.B) {
	c := bulkState(b, 5000)
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteState(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadState restores the same 5,000-group state into a fresh
// controller.
func BenchmarkReadState(b *testing.B) {
	c := bulkState(b, 5000)
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		b.Fatal(err)
	}
	state := buf.Bytes()
	b.SetBytes(int64(len(state)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := New(c.Topology(), c.Config())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := fresh.ReadState(bytes.NewReader(state)); err != nil {
			b.Fatal(err)
		}
	}
}
