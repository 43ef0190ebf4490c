package durable

import (
	"encoding/binary"
	"fmt"

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

// OpRecord is one WAL record as an op. Member lists are in the form a
// group keeps them in — each host once, in ascending host order — and
// are written and read as they are: DecodeRecord refuses any other
// order, and AppendRecord sorts nothing.
type OpRecord struct {
	Type    byte
	Key     controller.GroupKey
	Host    topology.HostID
	Role    controller.Role
	Members []controller.Member       // RecCreate
	Specs   []controller.PreparedSpec // RecBatch
	LSN     uint64                    // RecHeartbeat: the leader's last LSN
}

func appendKey(b []byte, key controller.GroupKey) []byte {
	b = binary.BigEndian.AppendUint32(b, key.Tenant)
	return binary.BigEndian.AppendUint32(b, key.Group)
}

// appendGroup appends one group's key | members: the one member writer,
// shared by RecCreate and RecBatch.
func appendGroup(b []byte, key controller.GroupKey, members []controller.Member) []byte {
	b = appendKey(b, key)
	b = binary.AppendUvarint(b, uint64(len(members)))
	for _, m := range members {
		b = binary.AppendUvarint(b, uint64(m.Host))
		b = append(b, byte(m.Role))
	}
	return b
}

// AppendRecord appends op's record payload to dst and returns the
// extended slice: the one writer of every record type. It is
// DecodeRecord's inverse: a payload DecodeRecord accepts re-encodes to
// the same bytes.
func AppendRecord(dst []byte, op OpRecord) []byte {
	dst = append(dst, op.Type)
	switch op.Type {
	case RecCreate:
		dst = appendGroup(dst, op.Key, op.Members)
	case RecJoin, RecLeave:
		dst = appendKey(dst, op.Key)
		dst = binary.AppendUvarint(dst, uint64(op.Host))
		dst = append(dst, byte(op.Role))
	case RecRemove:
		dst = appendKey(dst, op.Key)
	case RecBatch:
		dst = binary.AppendUvarint(dst, uint64(len(op.Specs)))
		for _, s := range op.Specs {
			dst = appendGroup(dst, s.Key, s.Members)
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

// spec reads one group's key | members — the one member reader. It
// holds the form appendGroup writes: each host once, ascending (in
// HostID order, the order PrepareBatch sorts in), so a repeat or any
// other order is refused, and the list it returns is one a group can
// keep as it is.
func (r *recReader) spec() (controller.PreparedSpec, error) {
	key, err := r.key()
	if err != nil {
		return controller.PreparedSpec{}, err
	}
	n, err := r.uvarint()
	if err != nil {
		return controller.PreparedSpec{}, err
	}
	if n > uint64(len(r.b)-r.off) {
		return controller.PreparedSpec{}, fmt.Errorf("durable: member count %d exceeds record", n)
	}
	members := make([]controller.Member, n)
	for i := range members {
		v, err := r.uvarint()
		if err != nil {
			return controller.PreparedSpec{}, err
		}
		h := topology.HostID(v)
		if i > 0 && h <= members[i-1].Host {
			return controller.PreparedSpec{}, fmt.Errorf("durable: record group %v hosts out of order at %d", key, v)
		}
		role, err := r.byte()
		if err != nil {
			return controller.PreparedSpec{}, err
		}
		members[i] = controller.Member{Host: h, Role: controller.Role(role)}
	}
	return controller.PreparedSpec{Key: key, Members: members}, nil
}

// batch reads a RecBatch body: spec count | (key | members)….
func (r *recReader) batch() ([]controller.PreparedSpec, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("durable: spec count %d exceeds record", n)
	}
	specs := make([]controller.PreparedSpec, n)
	for i := range specs {
		if specs[i], err = r.spec(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// end refuses bytes left over after a record.
func (r *recReader) end() error {
	if r.off != len(r.b) {
		return fmt.Errorf("durable: %d trailing bytes in record", len(r.b)-r.off)
	}
	return nil
}

// DecodeRecord parses a WAL record payload: the one reader of every
// record type. It is strict: unknown types, trailing bytes, non-minimal
// varints and member lists out of ascending host order are errors, so a
// corrupted-but-CRC-valid record (software bug, not media fault) cannot
// be half-applied, and what it accepts re-encodes to the same bytes.
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
		spec, err := r.spec()
		if err != nil {
			return rec, err
		}
		rec.Key, rec.Members = spec.Key, spec.Members
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
		if rec.Specs, err = r.batch(); err != nil {
			return rec, err
		}
	case RecHeartbeat:
		if rec.LSN, err = r.uvarint(); err != nil {
			return rec, err
		}
	default:
		return rec, fmt.Errorf("durable: unknown record type %d", typ)
	}
	return rec, r.end()
}

// applyOp performs op on ctrl: the one place a record becomes a
// controller mutation. The leader calls it with the op it just logged;
// recovery and followers call it (through applyRecord) with the op they
// decoded, so recovered ≡ follower ≡ leader holds by construction. A
// create and a batch install the ascending member lists the op carries,
// sorted by no one again; opts sizes a batch's encoders, and the
// outcome is the same for every value.
func applyOp(ctrl *controller.Controller, op OpRecord, opts controller.BatchOptions) (*controller.BatchResult, error) {
	switch op.Type {
	case RecCreate:
		_, err := ctrl.CreatePrepared(op.Key, op.Members)
		return nil, err
	case RecJoin:
		return nil, ctrl.Join(op.Key, op.Host, op.Role)
	case RecLeave:
		return nil, ctrl.Leave(op.Key, op.Host, op.Role)
	case RecRemove:
		return nil, ctrl.RemoveGroup(op.Key)
	case RecBatch:
		return ctrl.InstallPrepared(op.Specs, opts)
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
