package durable

import (
	"encoding/binary"
	"fmt"
	"slices"

	"elmo/internal/controller"
	"elmo/internal/topology"
)

// WAL record types. Every state-mutating controller op has one; the
// payload carries exactly the op's arguments, so replaying the log
// against a deterministic controller reproduces the crashed instance.
const (
	// RecCreate: key | members.
	RecCreate byte = 1
	// RecJoin: key | host | role.
	RecJoin byte = 2
	// RecLeave: key | host | role.
	RecLeave byte = 3
	// RecRemove: key.
	RecRemove byte = 4
	// RecBatch: spec count | (key | members)…. One record carries the
	// whole InstallBatch, so replay applies it as ONE InstallBatch in the
	// all-at-once admission order that produced the logged outcome, and a
	// crash mid-write leaves a torn tail, never half a batch.
	RecBatch byte = 5
	// RecHeartbeat: leader liveness beacon for the replication stream;
	// carries no controller mutation and is skipped on replay.
	RecHeartbeat byte = 6
)

// OpRecord is a decoded WAL record.
type OpRecord struct {
	Type    byte
	Key     controller.GroupKey
	Host    topology.HostID
	Role    controller.Role
	Members map[topology.HostID]controller.Role // RecCreate
	Specs   []controller.BatchSpec              // RecBatch
	LSN     uint64                              // RecHeartbeat: the leader's last LSN
}

func appendKey(b []byte, key controller.GroupKey) []byte {
	b = binary.BigEndian.AppendUint32(b, key.Tenant)
	return binary.BigEndian.AppendUint32(b, key.Group)
}

func appendMembers(b []byte, members map[topology.HostID]controller.Role) []byte {
	hosts := make([]topology.HostID, 0, len(members))
	for h := range members {
		hosts = append(hosts, h)
	}
	slices.Sort(hosts)
	b = binary.AppendUvarint(b, uint64(len(hosts)))
	for _, h := range hosts {
		b = binary.AppendUvarint(b, uint64(h))
		b = append(b, byte(members[h]))
	}
	return b
}

// AppendRecord appends op's record payload to dst and returns the
// extended slice. It is DecodeRecord's inverse: a payload DecodeRecord
// accepts re-encodes to the same bytes. Members are written once each,
// in ascending host order.
func AppendRecord(dst []byte, op OpRecord) []byte {
	dst = append(dst, op.Type)
	switch op.Type {
	case RecCreate:
		dst = appendKey(dst, op.Key)
		dst = appendMembers(dst, op.Members)
	case RecJoin, RecLeave:
		dst = appendKey(dst, op.Key)
		dst = binary.AppendUvarint(dst, uint64(op.Host))
		dst = append(dst, byte(op.Role))
	case RecRemove:
		dst = appendKey(dst, op.Key)
	case RecBatch:
		dst = binary.AppendUvarint(dst, uint64(len(op.Specs)))
		for _, s := range op.Specs {
			dst = appendKey(dst, s.Key)
			dst = appendMembers(dst, s.Members)
		}
	case RecHeartbeat:
		dst = binary.AppendUvarint(dst, op.LSN)
	}
	return dst
}

type recReader struct {
	b   []byte
	off int
}

func (r *recReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("durable: truncated varint at %d", r.off)
	}
	// A longer form than the encoder writes ends in a zero byte; the
	// record would decode to an op that re-encodes to other bytes.
	if n > 1 && r.b[r.off+n-1] == 0 {
		return 0, fmt.Errorf("durable: non-minimal varint at %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *recReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("durable: truncated record at %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *recReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("durable: truncated u32 at %d", r.off)
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *recReader) key() (controller.GroupKey, error) {
	t, err := r.u32()
	if err != nil {
		return controller.GroupKey{}, err
	}
	g, err := r.u32()
	if err != nil {
		return controller.GroupKey{}, err
	}
	return controller.GroupKey{Tenant: t, Group: g}, nil
}

func (r *recReader) members(key controller.GroupKey) (map[topology.HostID]controller.Role, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("durable: member count %d exceeds record", n)
	}
	m := make(map[topology.HostID]controller.Role, n)
	var prev topology.HostID
	for i := uint64(0); i < n; i++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		// appendMembers writes each host once, ascending (in HostID
		// order, the order it sorts in): a repeat would collapse into one
		// entry, and either would apply a membership the bytes do not
		// carry.
		h := topology.HostID(v)
		if i > 0 && h <= prev {
			return nil, fmt.Errorf("durable: record group %v hosts out of order at %d", key, v)
		}
		prev = h
		role, err := r.byte()
		if err != nil {
			return nil, err
		}
		m[h] = controller.Role(role)
	}
	return m, nil
}

// DecodeRecord parses a WAL record payload. It is strict: unknown
// types and trailing bytes are errors, so a corrupted-but-CRC-valid
// record (software bug, not media fault) cannot be half-applied.
func DecodeRecord(b []byte) (OpRecord, error) {
	var rec OpRecord
	r := &recReader{b: b}
	typ, err := r.byte()
	if err != nil {
		return rec, err
	}
	rec.Type = typ
	switch typ {
	case RecCreate:
		if rec.Key, err = r.key(); err != nil {
			return rec, err
		}
		if rec.Members, err = r.members(rec.Key); err != nil {
			return rec, err
		}
	case RecJoin, RecLeave:
		if rec.Key, err = r.key(); err != nil {
			return rec, err
		}
		h, err := r.uvarint()
		if err != nil {
			return rec, err
		}
		rec.Host = topology.HostID(h)
		role, err := r.byte()
		if err != nil {
			return rec, err
		}
		rec.Role = controller.Role(role)
	case RecRemove:
		if rec.Key, err = r.key(); err != nil {
			return rec, err
		}
	case RecBatch:
		n, err := r.uvarint()
		if err != nil {
			return rec, err
		}
		if n > uint64(len(r.b)-r.off) {
			return rec, fmt.Errorf("durable: spec count %d exceeds record", n)
		}
		rec.Specs = make([]controller.BatchSpec, 0, n)
		for i := uint64(0); i < n; i++ {
			key, err := r.key()
			if err != nil {
				return rec, err
			}
			m, err := r.members(key)
			if err != nil {
				return rec, err
			}
			rec.Specs = append(rec.Specs, controller.BatchSpec{Key: key, Members: m})
		}
	case RecHeartbeat:
		if rec.LSN, err = r.uvarint(); err != nil {
			return rec, err
		}
	default:
		return rec, fmt.Errorf("durable: unknown record type %d", typ)
	}
	if r.off != len(b) {
		return rec, fmt.Errorf("durable: %d trailing bytes in record", len(b)-r.off)
	}
	return rec, nil
}

// applyOp performs one op on ctrl: the only place a record type
// becomes a controller mutation. The leader calls it with the op it
// just logged; recovery and followers call it (through applyRecord)
// with the op they decoded, so recovered ≡ follower ≡ leader holds by
// construction. A RecBatch op carries the whole batch in Specs.
func applyOp(ctrl *controller.Controller, op OpRecord, batch controller.BatchOptions) (*controller.BatchResult, error) {
	switch op.Type {
	case RecCreate:
		_, err := ctrl.CreateGroup(op.Key, op.Members)
		return nil, err
	case RecJoin:
		return nil, ctrl.Join(op.Key, op.Host, op.Role)
	case RecLeave:
		return nil, ctrl.Leave(op.Key, op.Host, op.Role)
	case RecRemove:
		return nil, ctrl.RemoveGroup(op.Key)
	case RecBatch:
		return ctrl.InstallBatch(op.Specs, batch)
	}
	// RecHeartbeat: liveness only, no state.
	return nil, nil
}

// applyRecord turns one record payload — from the WAL on crash
// recovery, from the replication stream on a follower — into its
// controller op. Op-level errors are dropped (the op failed identically
// on the leader that logged it); a decode error is returned.
func applyRecord(ctrl *controller.Controller, payload []byte) error {
	op, err := DecodeRecord(payload)
	if err != nil {
		return err
	}
	_, _ = applyOp(ctrl, op, controller.BatchOptions{})
	return nil
}
