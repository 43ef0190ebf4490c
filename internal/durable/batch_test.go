package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/topology"
)

// seededSpecs returns n specs of 2..11 members with random roles over
// hosts [0, numHosts), keyed (tenant 9, group i+1).
func seededSpecs(n int, seed int64, numHosts int) []controller.BatchSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]controller.BatchSpec, n)
	for i := range specs {
		members := map[topology.HostID]controller.Role{}
		for size := 2 + rng.Intn(10); len(members) < size; {
			members[topology.HostID(rng.Intn(numHosts))] = controller.Role(1 + rng.Intn(3))
		}
		specs[i] = controller.BatchSpec{Key: controller.GroupKey{Tenant: 9, Group: uint32(i + 1)}, Members: members}
	}
	return specs
}

// TestDurableBatchStopsAtInvalidSpec: a batch whose spec 17 names a host
// outside the topology is logged whole as one record, fails with a
// *controller.BatchError at index 17 and leaves specs 0..16 installed —
// at one worker and at four — and a reopen replays the record to the
// leader's fingerprint.
func TestDurableBatchStopsAtInvalidSpec(t *testing.T) {
	// At least two Ps, so the encode workers run beside the sequencer
	// even on a one-CPU machine.
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	topo := durableTopo()
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		d, _ := openTest(t, dir)
		specs := seededSpecs(30, 5, topo.NumHosts())
		specs[17].Members[topology.HostID(topo.NumHosts())] = controller.RoleReceiver
		before := d.LastLSN()
		res, err := d.InstallBatch(specs, controller.BatchOptions{Workers: workers})
		var be *controller.BatchError
		if !errors.As(err, &be) || be.Index != 17 {
			t.Fatalf("workers %d: error %v, want a BatchError at index 17", workers, err)
		}
		if res == nil || res.Installed != 17 || d.Controller().NumGroups() != 17 {
			t.Fatalf("workers %d: result %+v with %d groups, want 17 installed", workers, res, d.Controller().NumGroups())
		}
		if got := d.LastLSN() - before; got != 1 {
			t.Fatalf("workers %d: the batch took %d records, want 1", workers, got)
		}
		want := d.Controller().Fingerprint()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		d2, stats := openTest(t, dir)
		if stats.Replayed != 1 || stats.Groups != 17 {
			t.Fatalf("workers %d: replayed %d records to %d groups, want 1 to 17", workers, stats.Replayed, stats.Groups)
		}
		if got := d2.Controller().Fingerprint(); got != want {
			t.Fatalf("workers %d: recovered fingerprint %s != leader %s", workers, got, want)
		}
		d2.Close()
	}
}

// batchRecordSHA256 is the sha256 of AppendRecord's RecBatch payload for
// the specs of TestBatchRecordSameBytesAnyProcs, taken from the encoder
// that sorted each member map itself: writing the record from prepared
// lists must not move a byte.
const batchRecordSHA256 = "2e52c428526daf202c949b8f513975dedb20b76650817cac501de439f8b4a1ab"

// TestBatchRecordSameBytesAnyProcs: the RecBatch record a leader logs is
// the same bytes at 1, 2 and 4 Ps — its members are sorted by one
// worker per P — and equals the pinned payload, a spec with an invalid
// role and one with a host outside the topology included. The payload
// decodes to the input specs' ascending lists and re-encodes to itself.
func TestBatchRecordSameBytesAnyProcs(t *testing.T) {
	topo := durableTopo()
	specs := seededSpecs(300, 11, topo.NumHosts())
	specs[150].Members[3] = controller.RoleBoth + 1
	specs[250].Members[topology.HostID(topo.NumHosts()+7)] = controller.RoleSender

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var logged [][]byte
		d, _, err := Open(topo, durableCfg(), Options{Dir: t.TempDir(), NoSync: true,
			Replicate: func(_, _ uint64, payload []byte) error {
				logged = append(logged, bytes.Clone(payload))
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InstallBatch(specs, controller.BatchOptions{}); err == nil {
			t.Fatal("a batch with an invalid role installed")
		}
		d.Close()
		if len(logged) != 1 || logged[0][0] != RecBatch {
			t.Fatalf("GOMAXPROCS %d: logged %d records, want one RecBatch", procs, len(logged))
		}
		if first == nil {
			first = logged[0]
		} else if !bytes.Equal(logged[0], first) {
			t.Fatalf("GOMAXPROCS %d: batch record differs from GOMAXPROCS 1", procs)
		}
	}
	if sum := sha256.Sum256(first); hex.EncodeToString(sum[:]) != batchRecordSHA256 {
		t.Fatalf("batch record sha256 %x, want %s", sum, batchRecordSHA256)
	}
	rec, err := DecodeRecord(first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Specs, controller.PrepareBatch(specs, 1)) {
		t.Fatal("batch record does not decode to its prepared specs")
	}
	if again := AppendRecord(nil, rec); !bytes.Equal(again, first) {
		t.Fatal("decoded batch record re-encodes to other bytes")
	}
}
