package durable

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/rsm"
	"elmo/internal/topology"
)

func TestRecordRoundTrip(t *testing.T) {
	key := controller.GroupKey{Tenant: 7, Group: 42}
	members := []controller.Member{
		{Host: 0, Role: controller.RoleBoth}, {Host: 17, Role: controller.RoleReceiver}, {Host: 63, Role: controller.RoleSender},
	}
	for _, op := range []OpRecord{
		{Type: RecCreate, Key: key, Members: members},
		{Type: RecJoin, Key: key, Host: 5, Role: controller.RoleReceiver},
		{Type: RecLeave, Key: key, Host: 5, Role: controller.RoleBoth},
		{Type: RecRemove, Key: key},
		{Type: RecHeartbeat, LSN: 12345},
	} {
		got, err := DecodeRecord(AppendRecord(nil, op))
		if err != nil {
			t.Fatalf("type %d: %v", op.Type, err)
		}
		if !reflect.DeepEqual(got, op) {
			t.Fatalf("type %d: %+v != %+v", op.Type, got, op)
		}
	}
}

// TestRecordBytesGolden pins one payload per record type: the WAL and
// the replication stream carry these bytes, so a change to the record
// encoding must fail here rather than move wal.bytes_per_op unnoticed.
// Appending to a non-empty dst leaves the prefix alone.
func TestRecordBytesGolden(t *testing.T) {
	key := controller.GroupKey{Tenant: 7, Group: 42}
	members := []controller.Member{
		{Host: 0, Role: controller.RoleBoth}, {Host: 17, Role: controller.RoleReceiver}, {Host: 300, Role: controller.RoleSender},
	}
	for _, tc := range []struct {
		op  OpRecord
		hex string
	}{
		{OpRecord{Type: RecCreate, Key: key, Members: members}, "01000000070000002a0300031102ac0201"},
		{OpRecord{Type: RecJoin, Key: key, Host: 5, Role: controller.RoleReceiver}, "02000000070000002a0502"},
		{OpRecord{Type: RecLeave, Key: key, Host: 200, Role: controller.RoleBoth}, "03000000070000002ac80103"},
		{OpRecord{Type: RecRemove, Key: key}, "04000000070000002a"},
		{OpRecord{Type: RecBatch, Specs: []controller.PreparedSpec{
			{Key: controller.GroupKey{Tenant: 7, Group: 43}, Members: members},
			{Key: controller.GroupKey{Tenant: 1 << 20, Group: 44}, Members: []controller.Member{{Host: 63, Role: controller.RoleReceiver}}},
		}}, "0502000000070000002b0300031102ac0201001000000000002c013f02"},
		{OpRecord{Type: RecHeartbeat, LSN: 12345}, "06b960"},
	} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRecord([]byte{0xee}, tc.op); got[0] != 0xee || !bytes.Equal(got[1:], want) {
			t.Fatalf("type %d encodes as %x, want ee%x", tc.op.Type, got, want)
		}
		if got, err := DecodeRecord(want); err != nil || !reflect.DeepEqual(got, tc.op) {
			t.Fatalf("type %d: %x decodes as %+v (%v)", tc.op.Type, want, got, err)
		}
	}
}

// TestBatchRoundTrip: a batch of any size — none, one or hundreds of
// specs — is one record that decodes to exactly its prepared specs.
func TestBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 522} {
		specs := make([]controller.BatchSpec, 0, n)
		for i := 0; i < n; i++ {
			specs = append(specs, controller.BatchSpec{
				Key: controller.GroupKey{Tenant: 1, Group: uint32(i + 1)},
				Members: map[topology.HostID]controller.Role{
					topology.HostID(i % 64):        controller.RoleBoth,
					topology.HostID((i + 13) % 64): controller.RoleReceiver,
				},
			})
		}
		prepared := controller.PrepareBatch(specs, 1)
		rec, err := DecodeRecord(AppendRecord(nil, OpRecord{Type: RecBatch, Specs: prepared}))
		if err != nil {
			t.Fatalf("%d specs: %v", n, err)
		}
		if rec.Type != RecBatch || !reflect.DeepEqual(rec.Specs, prepared) {
			t.Fatalf("%d specs decoded as %d specs of type %d", n, len(rec.Specs), rec.Type)
		}
	}
}

func TestDecodeRecordRejectsCorruptInput(t *testing.T) {
	valid := AppendRecord(nil, OpRecord{Type: RecCreate, Key: controller.GroupKey{Tenant: 1, Group: 2},
		Members: []controller.Member{{Host: 3, Role: controller.RoleBoth}}})
	bad := map[string][]byte{
		"empty":        {},
		"unknown type": {0x7f, 0, 0, 0},
		"truncated":    valid[:len(valid)-1],
		"trailing":     append(append([]byte{}, valid...), 0xcc),
		"huge count":   {RecCreate, 0, 0, 0, 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"spec overrun": {RecBatch, 7, 0},
		// appendGroup writes each host once, ascending.
		"repeated host":    {RecCreate, 0, 0, 0, 7, 0, 0, 0, 42, 2, 5, 1, 5, 2},
		"unordered hosts":  {RecCreate, 0, 0, 0, 7, 0, 0, 0, 42, 2, 9, 1, 5, 2},
		"non-minimal lsn":  {RecHeartbeat, 0x80, 0x00},
		"non-minimal host": {RecJoin, 0, 0, 0, 7, 0, 0, 0, 42, 0x85, 0x00, 2},
	}
	for name, b := range bad {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Single-byte mutations never panic.
	for off := 0; off < len(valid); off++ {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		_, _ = DecodeRecord(mut)
	}
}

// TestBatchChunkingByteBound drives batches whose one record is larger
// than a 16-bit length can say, the size that once forced a batch to be
// cut into pieces: each must ride one rsm command verbatim and decode
// to the exact original specs, a giant membership between small ones
// included.
func TestBatchChunkingByteBound(t *testing.T) {
	bigMembers := func(n, base int) []controller.Member {
		m := make([]controller.Member, n)
		for i := range m {
			m[i] = controller.Member{Host: topology.HostID(base + i), Role: controller.Role(1 + i%3)}
		}
		return m
	}
	cases := []struct {
		name  string
		specs []controller.PreparedSpec
	}{
		{"many-medium-specs", func() []controller.PreparedSpec {
			var specs []controller.PreparedSpec
			for i := 0; i < 200; i++ {
				specs = append(specs, controller.PreparedSpec{
					Key:     controller.GroupKey{Tenant: 1, Group: uint32(i + 1)},
					Members: bigMembers(500, i),
				})
			}
			return specs
		}()},
		{"one-giant-spec", []controller.PreparedSpec{{
			Key:     controller.GroupKey{Tenant: 2, Group: 7},
			Members: bigMembers(25000, 0),
		}}},
		{"giant-between-small", []controller.PreparedSpec{
			{Key: controller.GroupKey{Tenant: 3, Group: 1}, Members: bigMembers(3, 0)},
			{Key: controller.GroupKey{Tenant: 3, Group: 2}, Members: bigMembers(30000, 0)},
			{Key: controller.GroupKey{Tenant: 3, Group: 3}, Members: bigMembers(2, 9)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := AppendRecord(nil, OpRecord{Type: RecBatch, Specs: tc.specs})
			if len(b) <= 0xffff {
				t.Fatalf("batch encodes to %d bytes; not past a 16-bit length", len(b))
			}
			wire, err := (rsm.Command{Op: rsm.OpApply, Value: string(b)}).Marshal()
			if err != nil {
				t.Fatalf("%d-byte record not streamable: %v", len(b), err)
			}
			cmd, err := rsm.UnmarshalCommand(wire)
			if err != nil {
				t.Fatal(err)
			}
			if cmd.Value != string(b) {
				t.Fatalf("record of %d bytes came back as %d bytes", len(b), len(cmd.Value))
			}
			rec, err := DecodeRecord([]byte(cmd.Value))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Type != RecBatch || !reflect.DeepEqual(rec.Specs, tc.specs) {
				t.Fatalf("decoded %d specs of type %d differ from %d input specs", len(rec.Specs), rec.Type, len(tc.specs))
			}
		})
	}
}

// FuzzApplyRecord pushes arbitrary bytes through DecodeRecord and the
// one record applier onto a small follower that already holds a group:
// whatever a log or stream carries — hosts outside the topology, roles
// with unknown bits, batches naming an existing group — is an error or
// a failed op, never a panic in recovery or on a standby. A payload
// DecodeRecord accepts re-encodes to the same bytes, so what is applied
// is exactly what the record carries.
func FuzzApplyRecord(f *testing.F) {
	key := controller.GroupKey{Tenant: 7, Group: 42}
	members := []controller.Member{
		{Host: 0, Role: controller.RoleBoth}, {Host: 17, Role: controller.RoleReceiver}, {Host: 63, Role: controller.RoleSender},
	}
	seed := AppendRecord(nil, OpRecord{Type: RecCreate, Key: key, Members: members})
	f.Add(seed)
	f.Add(AppendRecord(nil, OpRecord{Type: RecJoin, Key: key, Host: 5, Role: controller.RoleReceiver}))
	f.Add(AppendRecord(nil, OpRecord{Type: RecLeave, Key: key, Host: 17, Role: controller.RoleReceiver}))
	f.Add(AppendRecord(nil, OpRecord{Type: RecRemove, Key: key}))
	f.Add(AppendRecord(nil, OpRecord{Type: RecHeartbeat, LSN: 12345}))
	f.Add(AppendRecord(nil, OpRecord{Type: RecBatch, Specs: []controller.PreparedSpec{
		{Key: controller.GroupKey{Tenant: 7, Group: 43}, Members: members},
		{Key: controller.GroupKey{Tenant: 7, Group: 44}, Members: members},
	}}))
	f.Add(AppendRecord(nil, OpRecord{Type: RecCreate, Key: controller.GroupKey{Tenant: 7, Group: 45},
		Members: []controller.Member{{Host: 0, Role: controller.RoleSender}, {Host: 99999, Role: controller.RoleReceiver}}}))
	f.Add(AppendRecord(nil, OpRecord{Type: RecJoin, Key: key, Host: 99999, Role: controller.RoleReceiver}))
	// Host 5 twice, and hosts 9, 5: corrupt, and refused.
	f.Add([]byte{RecCreate, 0, 0, 0, 7, 0, 0, 0, 42, 2, 5, 1, 5, 2})
	f.Add([]byte{RecCreate, 0, 0, 0, 7, 0, 0, 0, 42, 2, 9, 1, 5, 2})

	topo := durableTopo()
	f.Fuzz(func(t *testing.T, b []byte) {
		if rec, err := DecodeRecord(b); err == nil {
			if again := AppendRecord(nil, rec); !bytes.Equal(again, b) {
				t.Fatalf("record %x decodes to %+v, which encodes as %x", b, rec, again)
			}
		}
		fo, err := NewFollower(topo, durableCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := fo.Apply(1, seed); err != nil {
			t.Fatal(err)
		}
		// Twice: the second application meets the state the first left.
		_ = fo.Apply(1, b)
		_ = fo.Apply(1, b)
	})
}
