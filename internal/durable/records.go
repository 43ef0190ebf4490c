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
	// RecBatch: flags(1) | spec count | specs. A large InstallBatch is
	// chunked across consecutive records; every chunk except the last
	// sets the "more" flag bit. A chunk whose first spec continues the
	// previous chunk's last spec (a single membership too large for one
	// chunk) sets the "cont" flag bit; reassembly merges the two specs'
	// members. Replay accumulates chunks and applies them as ONE
	// InstallBatch, preserving the all-at-once admission order that
	// produced the logged outcome.
	RecBatch byte = 5
	// RecHeartbeat: leader liveness beacon for the replication stream;
	// carries no controller mutation and is skipped on replay.
	RecHeartbeat byte = 6
)

// RecBatch flag bits.
const (
	batchFlagMore byte = 1 << 0
	batchFlagCont byte = 1 << 1
)

// batchChunkSpecs bounds the specs per RecBatch record, keeping replay
// accumulation incremental.
const batchChunkSpecs = 256

// maxChunkBytes bounds one chunk's encoded spec bytes. The whole
// record payload doubles as an rsm command value when streamed to
// followers, and rsm.Command.Marshal rejects values over 0xffff — the
// bound leaves ample headroom for the record header, so a chunk can
// never fail replication on size alone.
const maxChunkBytes = 56 << 10

// OpRecord is a decoded WAL record.
type OpRecord struct {
	Type    byte
	Key     controller.GroupKey
	Host    topology.HostID
	Role    controller.Role
	Members map[topology.HostID]controller.Role // RecCreate
	Specs   []controller.BatchSpec              // RecBatch
	More    bool                                // RecBatch: further chunks follow
	Cont    bool                                // RecBatch: first spec continues the previous chunk's last spec
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

// EncodeCreate builds a RecCreate payload.
func EncodeCreate(key controller.GroupKey, members map[topology.HostID]controller.Role) []byte {
	b := make([]byte, 0, 16+3*len(members))
	b = append(b, RecCreate)
	b = appendKey(b, key)
	return appendMembers(b, members)
}

// EncodeMembership builds a RecJoin or RecLeave payload.
func EncodeMembership(typ byte, key controller.GroupKey, host topology.HostID, role controller.Role) []byte {
	b := make([]byte, 0, 16)
	b = append(b, typ)
	b = appendKey(b, key)
	b = binary.AppendUvarint(b, uint64(host))
	return append(b, byte(role))
}

// EncodeRemove builds a RecRemove payload.
func EncodeRemove(key controller.GroupKey) []byte {
	b := make([]byte, 0, 9)
	b = append(b, RecRemove)
	return appendKey(b, key)
}

// EncodeBatchChunks splits an InstallBatch's specs into RecBatch
// payloads, all but the last flagged "more". Chunks are bounded by
// both spec count (batchChunkSpecs) and encoded size (maxChunkBytes):
// a spec whose membership alone exceeds the byte bound is split at a
// member boundary, with the follow-on pieces repeating the key in a
// fresh chunk flagged "cont" so reassembly merges them back into one
// spec.
func EncodeBatchChunks(specs []controller.BatchSpec) [][]byte {
	type rawChunk struct {
		body  []byte
		count int
		cont  bool
	}
	var chunks []rawChunk
	var cur rawChunk
	flush := func() {
		chunks = append(chunks, cur)
		cur = rawChunk{}
	}
	for _, s := range specs {
		hosts := sortedHosts(s.Members)
		start := 0
		first := true
		for {
			if cur.count >= batchChunkSpecs {
				flush()
			}
			rem := maxChunkBytes - len(cur.body)
			end := pieceEnd(hosts, start, rem)
			if end == start && len(hosts) > 0 {
				// Not even one member fits; an empty chunk always fits
				// at least one, so this chunk just needs flushing.
				flush()
				continue
			}
			if !first && cur.count == 0 {
				cur.cont = true
			}
			cur.body = appendKey(cur.body, s.Key)
			cur.body = binary.AppendUvarint(cur.body, uint64(end-start))
			for _, h := range hosts[start:end] {
				cur.body = binary.AppendUvarint(cur.body, uint64(h))
				cur.body = append(cur.body, byte(s.Members[h]))
			}
			cur.count++
			first = false
			start = end
			if start >= len(hosts) {
				break
			}
		}
	}
	if len(chunks) == 0 && cur.count == 0 {
		// Empty batch still encodes one terminal chunk.
		flush()
	} else if cur.count > 0 {
		flush()
	}
	out := make([][]byte, len(chunks))
	for i, c := range chunks {
		var flags byte
		if i < len(chunks)-1 {
			flags |= batchFlagMore
		}
		if c.cont {
			flags |= batchFlagCont
		}
		p := make([]byte, 0, 2+binary.MaxVarintLen64+len(c.body))
		p = append(p, RecBatch, flags)
		p = binary.AppendUvarint(p, uint64(c.count))
		p = append(p, c.body...)
		out[i] = p
	}
	return out
}

func sortedHosts(members map[topology.HostID]controller.Role) []topology.HostID {
	hosts := make([]topology.HostID, 0, len(members))
	for h := range members {
		hosts = append(hosts, h)
	}
	slices.Sort(hosts)
	return hosts
}

// pieceEnd returns the largest end such that hosts[start:end] encodes
// (with key and count prefix) in at most rem bytes.
func pieceEnd(hosts []topology.HostID, start, rem int) int {
	end := start
	memBytes := 0
	for end < len(hosts) {
		mb := uvarintLen(uint64(hosts[end])) + 1
		n := end - start + 1
		if 8+uvarintLen(uint64(n))+memBytes+mb > rem {
			break
		}
		memBytes += mb
		end++
	}
	return end
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodeHeartbeat builds a RecHeartbeat payload carrying the leader's
// committed LSN.
func EncodeHeartbeat(lsn uint64) []byte {
	b := make([]byte, 0, 10)
	b = append(b, RecHeartbeat)
	return binary.AppendUvarint(b, lsn)
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

func (r *recReader) members() (map[topology.HostID]controller.Role, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("durable: member count %d exceeds record", n)
	}
	m := make(map[topology.HostID]controller.Role, n)
	for i := uint64(0); i < n; i++ {
		h, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		role, err := r.byte()
		if err != nil {
			return nil, err
		}
		m[topology.HostID(h)] = controller.Role(role)
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
		if rec.Members, err = r.members(); err != nil {
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
		flags, err := r.byte()
		if err != nil {
			return rec, err
		}
		if flags&^(batchFlagMore|batchFlagCont) != 0 {
			return rec, fmt.Errorf("durable: bad batch flags %#x", flags)
		}
		rec.More = flags&batchFlagMore != 0
		rec.Cont = flags&batchFlagCont != 0
		n, err := r.uvarint()
		if err != nil {
			return rec, err
		}
		if n > uint64(len(r.b)-r.off) {
			return rec, fmt.Errorf("durable: spec count %d exceeds record", n)
		}
		if rec.Cont && n == 0 {
			return rec, fmt.Errorf("durable: continuation chunk with no specs")
		}
		rec.Specs = make([]controller.BatchSpec, 0, n)
		for i := uint64(0); i < n; i++ {
			key, err := r.key()
			if err != nil {
				return rec, err
			}
			m, err := r.members()
			if err != nil {
				return rec, err
			}
			rec.Specs = append(rec.Specs, controller.BatchSpec{Key: key, Members: m})
		}
	case RecHeartbeat:
		if _, err := r.uvarint(); err != nil {
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
// just logged; recovery and followers call it (through recordApplier)
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

// recordApplier turns a stream of record payloads — the WAL on crash
// recovery, the replication stream on a follower — into controller ops.
type recordApplier struct {
	ctrl *controller.Controller
	asm  batchAssembler
}

// apply decodes one record and applies it, holding batch chunks back
// until the last one arrives. Op-level errors are dropped (the op
// failed identically on the leader that logged it); decode and
// stream-order violations are returned.
func (a *recordApplier) apply(payload []byte) error {
	op, err := DecodeRecord(payload)
	if err != nil {
		return err
	}
	if op.Type != RecBatch && a.asm.pending() {
		return fmt.Errorf("durable: %s interleaved with batch chunks", recName(op.Type))
	}
	if op.Type == RecBatch {
		if err := a.asm.add(op); err != nil {
			return err
		}
		if op.More {
			return nil
		}
		op.Specs = a.asm.specs
		a.asm.reset()
	}
	_, _ = applyOp(a.ctrl, op, controller.BatchOptions{})
	return nil
}

// batchAssembler reassembles a chunked InstallBatch from consecutive
// RecBatch records, merging a spec split across a continuation
// boundary back into one membership.
type batchAssembler struct {
	specs []controller.BatchSpec
	recs  int
}

// pending reports whether a batch is mid-assembly.
func (a *batchAssembler) pending() bool { return a.recs > 0 }

// add folds one decoded RecBatch chunk in.
func (a *batchAssembler) add(op OpRecord) error {
	specs := op.Specs
	if op.Cont {
		if len(a.specs) == 0 || len(specs) == 0 {
			return fmt.Errorf("durable: continuation chunk without a spec to continue")
		}
		last := &a.specs[len(a.specs)-1]
		if specs[0].Key != last.Key {
			return fmt.Errorf("durable: continuation key %v does not match %v", specs[0].Key, last.Key)
		}
		for h, r := range specs[0].Members {
			last.Members[h] = r
		}
		specs = specs[1:]
	}
	a.specs = append(a.specs, specs...)
	a.recs++
	return nil
}

// reset clears the assembler after the batch is applied (or dropped).
func (a *batchAssembler) reset() { a.specs, a.recs = nil, 0 }
