package durable

import (
	"bytes"
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

func TestBatchChunking(t *testing.T) {
	n := batchChunkSpecs*2 + 10
	specs := make([]controller.BatchSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, controller.BatchSpec{
			Key: controller.GroupKey{Tenant: 1, Group: uint32(i + 1)},
			Members: map[topology.HostID]controller.Role{
				topology.HostID(i % 64): controller.RoleBoth,
			},
		})
	}
	chunks := EncodeBatchChunks(specs)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks for %d specs", len(chunks), len(specs))
	}
	var joined []controller.BatchSpec
	for i, c := range chunks {
		rec, err := DecodeRecord(c)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		wantMore := i < len(chunks)-1
		if rec.More != wantMore {
			t.Fatalf("chunk %d more=%v, want %v", i, rec.More, wantMore)
		}
		joined = append(joined, rec.Specs...)
	}
	if !reflect.DeepEqual(joined, specs) {
		t.Fatal("reassembled specs differ")
	}

	// Empty batch still encodes one terminal chunk.
	chunks = EncodeBatchChunks(nil)
	if len(chunks) != 1 {
		t.Fatalf("empty batch encoded as %d chunks", len(chunks))
	}
	rec, err := DecodeRecord(chunks[0])
	if err != nil || rec.More || len(rec.Specs) != 0 {
		t.Fatalf("empty chunk decoded as %+v, %v", rec, err)
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
		"bad more":     {RecBatch, 7, 0},
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

// TestBatchChunkingByteBound drives memberships large enough that the
// spec-count cap alone would overflow the replication layer's record
// size limit: every chunk must stay streamable as an rsm command, and
// a single spec larger than one chunk must split across continuation
// chunks and reassemble to the exact original membership.
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
			// 200 specs x ~2000 bytes: fits the count cap, busts the old
			// single-chunk byte budget many times over.
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
			Members: bigMembers(20000, 0),
		}}},
		{"giant-between-small", []controller.BatchSpec{
			{Key: controller.GroupKey{Tenant: 3, Group: 1}, Members: bigMembers(3, 0)},
			{Key: controller.GroupKey{Tenant: 3, Group: 2}, Members: bigMembers(30000, 0)},
			{Key: controller.GroupKey{Tenant: 3, Group: 3}, Members: bigMembers(2, 9)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chunks := EncodeBatchChunks(tc.specs)
			var asm batchAssembler
			for i, c := range chunks {
				if len(c) > maxChunkBytes+64 {
					t.Fatalf("chunk %d is %d bytes, bound %d", i, len(c), maxChunkBytes)
				}
				// The payload must survive the replication layer verbatim.
				if _, err := (rsm.Command{Op: rsm.OpApply, Value: string(c)}).Marshal(); err != nil {
					t.Fatalf("chunk %d not streamable: %v", i, err)
				}
				rec, err := DecodeRecord(c)
				if err != nil {
					t.Fatalf("chunk %d: %v", i, err)
				}
				if wantMore := i < len(chunks)-1; rec.More != wantMore {
					t.Fatalf("chunk %d more=%v, want %v", i, rec.More, wantMore)
				}
				if err := asm.add(rec); err != nil {
					t.Fatalf("chunk %d: %v", i, err)
				}
			}
			if !reflect.DeepEqual(asm.specs, tc.specs) {
				t.Fatalf("reassembled %d specs differ from %d input specs", len(asm.specs), len(tc.specs))
			}
		})
	}
}

// TestBatchAssemblerRejectsBadContinuation covers the stream-corruption
// guards: a continuation with nothing before it, and one whose key
// does not match the spec it claims to continue.
func TestBatchAssemblerRejectsBadContinuation(t *testing.T) {
	split := EncodeBatchChunks([]controller.BatchSpec{{
		Key: controller.GroupKey{Tenant: 1, Group: 1},
		Members: func() map[topology.HostID]controller.Role {
			m := make(map[topology.HostID]controller.Role)
			for i := 0; i < 30000; i++ {
				m[topology.HostID(i)] = controller.RoleReceiver
			}
			return m
		}(),
	}})
	if len(split) < 2 {
		t.Fatalf("giant spec encoded as %d chunks", len(split))
	}
	cont, err := DecodeRecord(split[1])
	if err != nil || !cont.Cont {
		t.Fatalf("second chunk not a continuation: %+v, %v", cont, err)
	}

	var orphan batchAssembler
	if err := orphan.add(cont); err == nil {
		t.Fatal("continuation without predecessor accepted")
	}

	var wrongKey batchAssembler
	first, err := DecodeRecord(split[0])
	if err != nil {
		t.Fatal(err)
	}
	first.Specs[len(first.Specs)-1].Key = controller.GroupKey{Tenant: 9, Group: 9}
	if err := wrongKey.add(first); err != nil {
		t.Fatal(err)
	}
	if err := wrongKey.add(cont); err == nil {
		t.Fatal("continuation with mismatched key accepted")
	}
}

// FuzzApplyRecord pushes arbitrary bytes through DecodeRecord and the
// one record applier onto a small follower that already holds a group:
// whatever a log or stream carries — hosts outside the topology, roles
// with unknown bits, dangling batch chunks — is an error or a failed
// op, never a panic in recovery or on a standby.
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
	for _, c := range EncodeBatchChunks([]controller.BatchSpec{
		{Key: controller.GroupKey{Tenant: 7, Group: 43}, Members: members},
		{Key: controller.GroupKey{Tenant: 7, Group: 44}, Members: members},
	}) {
		f.Add(c)
	}
	f.Add(EncodeCreate(controller.GroupKey{Tenant: 7, Group: 45},
		map[topology.HostID]controller.Role{0: controller.RoleSender, 99999: controller.RoleReceiver}))
	f.Add(EncodeMembership(RecJoin, key, 99999, controller.RoleReceiver))

	topo := durableTopo()
	f.Fuzz(func(t *testing.T, b []byte) {
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
