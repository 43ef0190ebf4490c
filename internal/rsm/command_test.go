package rsm

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"elmo/internal/topology"
)

// TestCommandRoundTripProperty checks Marshal∘UnmarshalCommand is the
// identity over randomly generated valid commands, and over one whose
// value is a whole large WAL record.
func TestCommandRoundTripProperty(t *testing.T) {
	gen := func(r *rand.Rand) Command {
		c := Command{Op: Op(1 + r.Intn(3))}
		if r.Intn(2) == 0 {
			c.Epoch = r.Uint64()
		}
		k := make([]byte, r.Intn(64))
		v := make([]byte, r.Intn(256))
		r.Read(k)
		r.Read(v)
		c.Key, c.Value = string(k), string(v)
		return c
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(gen(r))
		},
	}
	prop := func(c Command) bool {
		b, err := c.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalCommand(b)
		if err != nil {
			return false
		}
		if got != c {
			return false
		}
		// Re-encoding is byte-stable.
		b2, err := got.Marshal()
		return err == nil && bytes.Equal(b, b2)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20+3)
	rand.New(rand.NewSource(1)).Read(big)
	if !prop(Command{Op: OpApply, Epoch: 9, Key: "wal", Value: string(big)}) {
		t.Fatal("1 MiB value does not round-trip")
	}
}

func TestUnmarshalCommandStrict(t *testing.T) {
	bad := map[string][]byte{
		"empty":       {},
		"short":       {byte(OpSet), 0, 0},
		"unknown op":  {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"op too high": {4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"key overrun": {byte(OpSet), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 'k'},
		"key cut":     {byte(OpSet), 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 'k'},
	}
	for name, b := range bad {
		if _, err := UnmarshalCommand(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	big := string(make([]byte, 0x10000))
	if _, err := (Command{Op: OpSet, Key: big}).Marshal(); err == nil {
		t.Fatal("oversize key accepted")
	}
	if _, err := (Command{Op: 9}).Marshal(); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestProposeApplyStreamsToAppliers replicates opaque payloads
// through a cluster and checks every follower's applier hook sees them
// in order.
func TestProposeApplyStreamsToAppliers(t *testing.T) {
	c := rsmFixture(t, 8)
	got := map[int][][]byte{}
	i := 0
	for _, h := range []int{8, 17, 40, 56} {
		idx := i
		c.Replica(topology.HostID(h)).SetApplier(func(_ uint64, p []byte) error {
			got[idx] = append(got[idx], append([]byte(nil), p...))
			return nil
		})
		i++
	}
	want := [][]byte{[]byte("one"), {0x00, 0xff, 0x00}, []byte("three")}
	for _, p := range want {
		if err := c.ProposeApplyAt(0, p); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave a KV command: appliers must not see it.
	if err := c.Propose(Command{Op: OpSet, Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for idx, stream := range got {
		if len(stream) != len(want) {
			t.Fatalf("follower %d saw %d payloads, want %d", idx, len(stream), len(want))
		}
		for j := range want {
			if !bytes.Equal(stream[j], want[j]) {
				t.Fatalf("follower %d payload %d = %x, want %x", idx, j, stream[j], want[j])
			}
		}
	}
	if ok, why := c.Converged(); !ok {
		t.Fatalf("not converged: %s", why)
	}
}

// TestReplicaFencesStaleEpoch: once a replica has applied a command
// from epoch N, commands stamped with a lower epoch advance the log
// position but never mutate state or reach the applier — a deposed
// leader's residue is discarded, not interleaved. Epoch 0 is the
// lowest epoch, not a bypass: a fresh replica applies it, a fenced one
// discards it like any other stale term.
func TestReplicaFencesStaleEpoch(t *testing.T) {
	r := NewReplica(1)
	var applied [][]byte
	r.SetApplier(func(_ uint64, p []byte) error {
		applied = append(applied, append([]byte(nil), p...))
		return nil
	})
	apply := func(c Command) {
		t.Helper()
		b, err := c.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// A replica no fenced leader has written applies epoch 0.
	apply(Command{Op: OpSet, Key: "zero", Value: "fresh"})
	if v, _ := r.Get("zero"); v != "fresh" || r.Epoch() != 0 {
		t.Fatalf("epoch 0 on a fresh replica: zero = %q, epoch %d", v, r.Epoch())
	}
	apply(Command{Op: OpSet, Epoch: 2, Key: "k", Value: "new-leader"})
	apply(Command{Op: OpApply, Epoch: 2, Value: "payload-2"})
	// Stale term: discarded but the log position still advances.
	apply(Command{Op: OpSet, Epoch: 1, Key: "k", Value: "old-leader"})
	apply(Command{Op: OpApply, Epoch: 1, Value: "stale-payload"})
	// Epoch 0 is stale too once the floor is 2.
	apply(Command{Op: OpSet, Key: "zero", Value: "stale"})

	if v, _ := r.Get("k"); v != "new-leader" {
		t.Fatalf("k = %q, stale write applied", v)
	}
	if v, _ := r.Get("zero"); v != "fresh" {
		t.Fatalf("zero = %q, epoch-0 write applied past floor 2", v)
	}
	if len(applied) != 1 || string(applied[0]) != "payload-2" {
		t.Fatalf("applier saw %q, want only payload-2", applied)
	}
	if r.Applied() != 6 {
		t.Fatalf("Applied = %d, want 6 (fenced commands advance the log)", r.Applied())
	}
	if r.Epoch() != 2 {
		t.Fatalf("Epoch = %d, want 2", r.Epoch())
	}
}

// FuzzUnmarshalCommand asserts the decoder never panics and that any
// input it accepts re-encodes to exactly the input bytes (a decoded
// command is always canonical under the strict format).
func FuzzUnmarshalCommand(f *testing.F) {
	seeds := []Command{
		{Op: OpSet, Key: "k", Value: "v"},
		{Op: OpDelete, Key: "gone"},
		{Op: OpApply, Value: "\x00\x01\x02opaque wal record"},
		{Op: OpSet},
		{Op: OpApply, Epoch: 7, Value: "fenced wal record"},
		{Op: OpSet, Epoch: 1<<64 - 1, Key: "max-term", Value: "v"},
	}
	for _, c := range seeds {
		b, err := c.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(OpSet), 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := UnmarshalCommand(b)
		if err != nil {
			return
		}
		out, err := c.Marshal()
		if err != nil {
			t.Fatalf("decoded command fails to re-encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("not canonical: in=%x out=%x", b, out)
		}
	})
}
