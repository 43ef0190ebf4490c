package durable

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/rsm"
	"elmo/internal/topology"
)

func TestRecordRoundTrip(t *testing.T) {
	key := controller.GroupKey{Tenant: 7, Group: 42}
	members := map[topology.HostID]controller.Role{
		0: controller.RoleBoth, 17: controller.RoleReceiver, 63: controller.RoleSender,
	}

	cases := []struct {
		name string
		b    []byte
		want OpRecord
	}{
		{"create", EncodeCreate(key, members),
			OpRecord{Type: RecCreate, Key: key, Members: members}},
		{"join", EncodeMembership(RecJoin, key, 5, controller.RoleReceiver),
			OpRecord{Type: RecJoin, Key: key, Host: 5, Role: controller.RoleReceiver}},
		{"leave", EncodeMembership(RecLeave, key, 5, controller.RoleBoth),
			OpRecord{Type: RecLeave, Key: key, Host: 5, Role: controller.RoleBoth}},
		{"remove", EncodeRemove(key),
			OpRecord{Type: RecRemove, Key: key}},
	}
	for _, tc := range cases {
		got, err := DecodeRecord(tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: %+v != %+v", tc.name, got, tc.want)
		}
	}

	hb := EncodeHeartbeat(12345)
	got, err := DecodeRecord(hb)
	if err != nil || got.Type != RecHeartbeat {
		t.Fatalf("heartbeat: %+v, %v", got, err)
	}
}

// TestBatchRoundTrip: a batch of any size — none, one or hundreds of
// specs — is one record that decodes to exactly its specs.
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
		rec, err := DecodeRecord(EncodeBatch(specs))
		if err != nil {
			t.Fatalf("%d specs: %v", n, err)
		}
		if rec.Type != RecBatch || !reflect.DeepEqual(rec.Specs, specs) {
			t.Fatalf("%d specs decoded as %d specs of type %d", n, len(rec.Specs), rec.Type)
		}
	}
}

func TestDecodeRecordRejectsCorruptInput(t *testing.T) {
	valid := EncodeCreate(controller.GroupKey{Tenant: 1, Group: 2},
		map[topology.HostID]controller.Role{3: controller.RoleBoth})
	bad := map[string][]byte{
		"empty":        {},
		"unknown type": {0x7f, 0, 0, 0},
		"truncated":    valid[:len(valid)-1],
		"trailing":     append(append([]byte{}, valid...), 0xcc),
		"huge count":   {RecCreate, 0, 0, 0, 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"spec overrun": {RecBatch, 7, 0},
		// appendMembers writes each host once, ascending.
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
	bigMembers := func(n, base int) map[topology.HostID]controller.Role {
		m := make(map[topology.HostID]controller.Role, n)
		for i := 0; i < n; i++ {
			m[topology.HostID(base+i)] = controller.Role(1 + i%3)
		}
		return m
	}
	cases := []struct {
		name  string
		specs []controller.BatchSpec
	}{
		{"many-medium-specs", func() []controller.BatchSpec {
			var specs []controller.BatchSpec
			for i := 0; i < 200; i++ {
				specs = append(specs, controller.BatchSpec{
					Key:     controller.GroupKey{Tenant: 1, Group: uint32(i + 1)},
					Members: bigMembers(500, i),
				})
			}
			return specs
		}()},
		{"one-giant-spec", []controller.BatchSpec{{
			Key:     controller.GroupKey{Tenant: 2, Group: 7},
			Members: bigMembers(25000, 0),
		}}},
		{"giant-between-small", []controller.BatchSpec{
			{Key: controller.GroupKey{Tenant: 3, Group: 1}, Members: bigMembers(3, 0)},
			{Key: controller.GroupKey{Tenant: 3, Group: 2}, Members: bigMembers(30000, 0)},
			{Key: controller.GroupKey{Tenant: 3, Group: 3}, Members: bigMembers(2, 9)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := EncodeBatch(tc.specs)
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

// reencode builds a decoded record's payload again with the encoder of
// its type.
func reencode(rec OpRecord, payload []byte) []byte {
	switch rec.Type {
	case RecCreate:
		return EncodeCreate(rec.Key, rec.Members)
	case RecJoin, RecLeave:
		return EncodeMembership(rec.Type, rec.Key, rec.Host, rec.Role)
	case RecRemove:
		return EncodeRemove(rec.Key)
	case RecBatch:
		return EncodeBatch(rec.Specs)
	case RecHeartbeat:
		lsn, _ := binary.Uvarint(payload[1:]) // OpRecord does not keep it
		return EncodeHeartbeat(lsn)
	}
	return nil
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
	members := map[topology.HostID]controller.Role{
		0: controller.RoleBoth, 17: controller.RoleReceiver, 63: controller.RoleSender,
	}
	seed := EncodeCreate(key, members)
	f.Add(seed)
	f.Add(EncodeMembership(RecJoin, key, 5, controller.RoleReceiver))
	f.Add(EncodeMembership(RecLeave, key, 17, controller.RoleReceiver))
	f.Add(EncodeRemove(key))
	f.Add(EncodeHeartbeat(12345))
	f.Add(EncodeBatch([]controller.BatchSpec{
		{Key: controller.GroupKey{Tenant: 7, Group: 43}, Members: members},
		{Key: controller.GroupKey{Tenant: 7, Group: 44}, Members: members},
	}))
	f.Add(EncodeCreate(controller.GroupKey{Tenant: 7, Group: 45},
		map[topology.HostID]controller.Role{0: controller.RoleSender, 99999: controller.RoleReceiver}))
	f.Add(EncodeMembership(RecJoin, key, 99999, controller.RoleReceiver))
	// Host 5 twice, and hosts 9, 5: corrupt, and refused.
	f.Add([]byte{RecCreate, 0, 0, 0, 7, 0, 0, 0, 42, 2, 5, 1, 5, 2})
	f.Add([]byte{RecCreate, 0, 0, 0, 7, 0, 0, 0, 42, 2, 9, 1, 5, 2})

	topo := durableTopo()
	f.Fuzz(func(t *testing.T, b []byte) {
		if rec, err := DecodeRecord(b); err == nil {
			if again := reencode(rec, b); !bytes.Equal(again, b) {
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
