// Package durable adds crash durability and replicated failover to the
// Elmo controller. The controller's own state is soft in the paper's
// sense (recomputable from membership), but a provider restarting a
// controller for 1M groups cannot afford to lose the membership map or
// re-learn it from hypervisors — so the control plane logs every
// state-mutating op to a write-ahead log before applying it, compacts
// the log with periodic full-state snapshots, and streams the same log
// through the RSM multicast layer so warm followers can take over when
// the leader dies.
//
// Invariants:
//   - WAL order == apply order (both happen under one mutex), so
//     replaying the log against a fresh controller reproduces the
//     crashed instance exactly.
//   - Durability is prefix-closed: a record is durable only if all
//     records before it are (an fsync covers every earlier append).
//   - A snapshot at LSN n plus the log after n is equivalent to the
//     full log; TruncateThrough(n) is safe the moment the snapshot
//     file is atomically in place.
package durable

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"elmo/internal/controller"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/wal"
)

const (
	snapshotFile    = "snapshot.bin"
	snapshotMagic   = "ELMOSNAP"
	snapshotVersion = 2
	// envelope: magic(8) | version(2) | lsn(8) | epoch(8) | payloadLen(8) | sha256(32)
	envelopeBytes = 8 + 2 + 8 + 8 + 8 + 32
)

// Leadership errors. Every mutating entry point fails fast with an
// error satisfying errors.Is(err, ErrNotLeader) once the controller
// has lost (or given up) leadership, so callers can redirect to the
// new leader with bounded backoff instead of blocking.
var (
	// ErrNotLeader is the base class: this controller no longer accepts
	// mutations.
	ErrNotLeader = errors.New("durable: not leader (read-only)")
	// ErrLeaseExpired means the leader self-demoted: it failed to
	// observe any follower ack within its lease budget and can no
	// longer rule out that a partition has elected a successor.
	ErrLeaseExpired = fmt.Errorf("durable: leader lease expired: %w", ErrNotLeader)
	// ErrDeposed means the leader observed a higher epoch — a successor
	// was promoted — and stepped down immediately.
	ErrDeposed = fmt.Errorf("durable: deposed by a higher epoch: %w", ErrNotLeader)
)

// Lease ties the leader's right to mutate to observed follower
// progress, in the same deterministic currency as the failure
// Detector: heartbeat rounds. Each Heartbeat that streams a record but
// observes zero follower acks burns one unit of budget; any ack
// refills it. When the budget is gone the leader cannot rule out that
// a partition has separated it from a quorum of followers (who may by
// now have promoted a successor), so it self-demotes to read-only
// rather than keep writing on the losing side of a split brain.
type Lease struct {
	// MissBudget is the number of consecutive heartbeat rounds with
	// zero follower acks tolerated before self-demotion. <= 0 disables
	// the lease.
	MissBudget int
}

// Options configures a DurableController.
type Options struct {
	// Dir is the durability root; the WAL lives in Dir/wal and the
	// snapshot in Dir/snapshot.bin.
	Dir string
	// SegmentBytes overrides the WAL segment size (0 = default).
	SegmentBytes int
	// NoSync skips fsync (tests and benchmarks that measure CPU cost).
	NoSync bool
	// Registry, when set, registers WAL telemetry.
	Registry *telemetry.Registry
	// Replicate, when set, receives every logged payload in LSN order
	// after it is applied locally (still under the op mutex, so stream
	// order == log order), stamped with the leader's epoch. Used to
	// feed warm followers via the RSM layer.
	Replicate func(lsn, epoch uint64, payload []byte) error
	// Epoch overrides the starting leadership epoch. The effective
	// epoch is the maximum of this, the snapshot's epoch, the WAL
	// tail's epoch, and 1 — a durable controller always runs fenced.
	Epoch uint64
	// Lease, when enabled, self-demotes the leader after
	// Lease.MissBudget heartbeat rounds without a follower ack.
	Lease Lease
	// FollowerAcks reports (acked, total) follower counts for the
	// lease: how many followers have applied everything streamed so
	// far. Typically ReplicaSet.FollowerAcks.
	FollowerAcks func() (acked, total int)
}

// RecoveryStats reports what Open did to rebuild state.
type RecoveryStats struct {
	// SnapshotLSN is the LSN the loaded snapshot covered (0 = none).
	SnapshotLSN uint64
	// SnapshotBytes is the snapshot payload size.
	SnapshotBytes int64
	// SnapshotElapsed is the time spent restoring the snapshot.
	SnapshotElapsed time.Duration
	// Replayed counts WAL records applied after the snapshot.
	Replayed int
	// ReplayElapsed is the time spent replaying the log.
	ReplayElapsed time.Duration
	// LastLSN is the highest LSN recovered.
	LastLSN uint64
	// Groups is the group count after recovery.
	Groups int
	// Epoch is the leadership epoch the controller runs at.
	Epoch uint64
}

// DurableController wraps a controller with write-ahead logging,
// snapshot/restore, and an optional replication tap.
type DurableController struct {
	mu      sync.Mutex
	ctrl    *controller.Controller
	log     *wal.Log
	opts    Options
	snapLSN uint64
	closed  bool
	// epoch is the leadership term every WAL frame, streamed record,
	// and data-plane install is stamped with. Immutable after Open.
	epoch uint64
	// notLeader latches the demotion reason (ErrLeaseExpired or
	// ErrDeposed); once set, every mutating op fails fast with it.
	// Demotion is one-way: a demoted leader rejoins as a Follower.
	notLeader   error
	leaseMisses int
	// snapMu serializes the whole snapshot path (state write + rename +
	// log truncation): two racing snapshots could otherwise rename an
	// older state over a newer one while the newer LSN drives
	// truncation, deleting segments the surviving snapshot needs.
	snapMu sync.Mutex
	// replErr latches the first replication failure; the leader keeps
	// serving (followers are warm spares, not a quorum), but the stall
	// is an alarm: replSkipped counts every record followers missed,
	// Heartbeat returns the latched error so the probe machinery sees
	// it, and ReplicationErr exposes it directly.
	replErr     error
	replSkipped *telemetry.Counter
}

// Open recovers (or initializes) a durable controller in opts.Dir:
// load the snapshot if present, replay the log after it, then open the
// WAL for appending.
func Open(topo *topology.Topology, cfg controller.Config, opts Options) (*DurableController, *RecoveryStats, error) {
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		return nil, nil, err
	}
	// wal.Open makes the log directory (and Dir), durably, in step 3;
	// until then a fresh directory reads as an empty one.
	walDir := filepath.Join(opts.Dir, "wal")
	stats := &RecoveryStats{}

	// 1. Snapshot.
	from := uint64(1)
	epoch := opts.Epoch
	payload, snapLSN, snapEpoch, err := readSnapshotFile(filepath.Join(opts.Dir, snapshotFile))
	switch {
	case err == nil:
		start := time.Now()
		if err := ctrl.ReadState(bytes.NewReader(payload)); err != nil {
			return nil, nil, fmt.Errorf("durable: snapshot state: %w", err)
		}
		stats.SnapshotLSN = snapLSN
		stats.SnapshotBytes = int64(len(payload))
		stats.SnapshotElapsed = time.Since(start)
		from = snapLSN + 1
		if snapEpoch > epoch {
			epoch = snapEpoch
		}
	case errors.Is(err, os.ErrNotExist):
		// Fresh start (or log-only recovery).
	default:
		return nil, nil, err
	}

	// 2. Replay the log after the snapshot.
	start := time.Now()
	last, err := wal.Replay(walDir, from, func(rec wal.Record) error {
		if err := applyRecord(ctrl, rec.Data); err != nil {
			return fmt.Errorf("lsn %d: %w", rec.LSN, err)
		}
		stats.Replayed++
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("durable: replay: %w", err)
	}
	stats.ReplayElapsed = time.Since(start)
	stats.LastLSN = last
	stats.Groups = ctrl.NumGroups()

	// 3. Open the WAL for appending (truncates any torn tail).
	var met *wal.Metrics
	var replSkipped *telemetry.Counter
	if opts.Registry != nil {
		met = wal.NewMetrics(opts.Registry)
		replSkipped = opts.Registry.Counter("elmo_durable_repl_skipped_total",
			"Records not replicated because the replication stream stalled (followers are stale until resynced).")
	}
	if epoch == 0 {
		epoch = 1 // a durable controller always runs fenced
	}
	log, err := wal.Open(wal.Options{
		Dir:          walDir,
		SegmentBytes: opts.SegmentBytes,
		NoSync:       opts.NoSync,
		Metrics:      met,
		Epoch:        epoch,
	})
	if err != nil {
		return nil, nil, err
	}
	// The WAL tail may carry a higher epoch than the snapshot or the
	// caller asked for; the log's resolved epoch is authoritative.
	stats.Epoch = log.Epoch()
	d := &DurableController{ctrl: ctrl, log: log, opts: opts,
		snapLSN: stats.SnapshotLSN, epoch: log.Epoch(), replSkipped: replSkipped}
	return d, stats, nil
}

// Controller exposes the wrapped controller for reads (headers,
// counts, fingerprints). Mutations MUST go through the durable
// wrappers or they will be lost on restart.
func (d *DurableController) Controller() *controller.Controller { return d.ctrl }

// LastLSN reports the highest assigned LSN.
func (d *DurableController) LastLSN() uint64 { return d.log.LastLSN() }

// ReplicationErr reports the first replication failure, if any.
func (d *DurableController) ReplicationErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replErr
}

// Epoch reports the leadership term this controller stamps on every
// WAL frame, streamed record, and data-plane install.
func (d *DurableController) Epoch() uint64 { return d.epoch }

// NotLeaderErr reports why this controller is read-only (nil while it
// still holds leadership).
func (d *DurableController) NotLeaderErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.notLeader
}

// LeaseMisses reports the consecutive heartbeat rounds without a
// follower ack (0 when the lease is healthy or disabled).
func (d *DurableController) LeaseMisses() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.leaseMisses
}

// ObserveEpoch tells the controller another leadership term exists. A
// higher epoch — learned from a fencing rejection, a follower, or the
// replication stream — deposes this leader immediately: the successor
// was promoted from replicated state, so continuing to mutate here
// would fork history. Returns the (possibly just-latched) demotion
// error, nil if still leading.
func (d *DurableController) ObserveEpoch(epoch uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if epoch > d.epoch && d.notLeader == nil {
		d.notLeader = fmt.Errorf("durable: saw epoch %d above own %d: %w", epoch, d.epoch, ErrDeposed)
	}
	return d.notLeader
}

// ResyncState serializes the controller's full state together with its
// epoch — the seed a deposed leader ships to NewFollowerFromState so
// it can rejoin a successor's replica set as a warm standby.
func (d *DurableController) ResyncState() (epoch uint64, state []byte, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var buf bytes.Buffer
	if err := d.ctrl.WriteState(&buf); err != nil {
		return 0, nil, err
	}
	return d.epoch, buf.Bytes(), nil
}

// mutate is the log-before-apply spine every state-changing op runs
// through: write the op's one record, apply the op (applyOp, as replay
// and followers do), and stream the record to followers — all under
// d.mu so WAL order, apply order, and stream order coincide — then
// commit OUTSIDE the lock, so ops that commit while an fsync runs share
// the next one (group commit). The op's own outcome is returned only
// once it is durable: a failed op is logged, and fails identically on
// replay and followers.
func (d *DurableController) mutate(op OpRecord, opts controller.BatchOptions) (*controller.BatchResult, error) {
	payload := AppendRecord(nil, op)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("durable: controller closed")
	}
	if d.notLeader != nil {
		err := d.notLeader
		d.mu.Unlock()
		return nil, err
	}
	lsn, err := d.log.Append(op.Type, payload)
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	res, applyErr := applyOp(d.ctrl, op, opts)
	d.streamLocked(lsn, payload)
	d.mu.Unlock()
	if err := d.log.Commit(lsn); err != nil {
		return res, fmt.Errorf("durable: commit lsn %d: %w", lsn, err)
	}
	return res, applyErr
}

// logOp runs a single-group op (or a heartbeat) through mutate.
func (d *DurableController) logOp(op OpRecord) error {
	_, err := d.mutate(op, controller.BatchOptions{})
	return err
}

func (d *DurableController) streamLocked(lsn uint64, payload []byte) {
	if d.opts.Replicate == nil {
		return
	}
	if d.replErr != nil {
		d.replSkipped.Inc()
		return
	}
	if err := d.opts.Replicate(lsn, d.epoch, payload); err != nil {
		d.replErr = fmt.Errorf("durable: replication stalled at lsn %d: %w", lsn, err)
		d.replSkipped.Inc()
	}
}

// CreateGroup durably creates a group. Its members are listed in
// ascending host order once, here; the record is written from that list
// and the group keeps it.
func (d *DurableController) CreateGroup(key controller.GroupKey, members map[topology.HostID]controller.Role) error {
	spec := controller.PrepareBatch([]controller.BatchSpec{{Key: key, Members: members}}, 1)[0]
	return d.logOp(OpRecord{Type: RecCreate, Key: key, Members: spec.Members})
}

// Join durably adds (or upgrades) a member.
func (d *DurableController) Join(key controller.GroupKey, host topology.HostID, role controller.Role) error {
	return d.logOp(OpRecord{Type: RecJoin, Key: key, Host: host, Role: role})
}

// Leave durably removes a member role.
func (d *DurableController) Leave(key controller.GroupKey, host topology.HostID, role controller.Role) error {
	return d.logOp(OpRecord{Type: RecLeave, Key: key, Host: host, Role: role})
}

// RemoveGroup durably deletes a group.
func (d *DurableController) RemoveGroup(key controller.GroupKey) error {
	return d.logOp(OpRecord{Type: RecRemove, Key: key})
}

// InstallBatch durably bulk-creates groups. The specs are prepared
// before the lock — each member map sorted once, on opts.Workers — and
// the one WAL record is written from the same lists the batch is then
// installed from. The whole batch is one record, so a crash mid-write
// leaves a torn tail that recovery drops like any other: a half-applied
// batch can never surface.
func (d *DurableController) InstallBatch(specs []controller.BatchSpec, opts controller.BatchOptions) (*controller.BatchResult, error) {
	return d.mutate(OpRecord{Type: RecBatch, Specs: controller.PrepareBatch(specs, opts.Workers)}, opts)
}

// Heartbeat runs a liveness record (no state change) through the spine
// so followers see a moving stream even when the control plane is
// idle. A latched replication failure is returned here — the heartbeat
// is the probe path, so a stalled stream surfaces as an unhealthy
// leader instead of a silent follower divergence. With a Lease
// configured, each heartbeat round also audits follower acks:
// MissBudget consecutive rounds without one and the leader
// self-demotes (ErrLeaseExpired) — on the losing side of a partition
// this fires in the same round currency as the followers' Detector,
// bounding the split-brain window to the lease budget.
func (d *DurableController) Heartbeat() error {
	if err := d.logOp(OpRecord{Type: RecHeartbeat, LSN: d.log.LastLSN()}); err != nil {
		return err
	}
	if err := d.auditLease(); err != nil {
		return err
	}
	return d.ReplicationErr()
}

// auditLease burns or refills the lease budget based on follower acks
// observed this round, self-demoting when the budget runs out.
func (d *DurableController) auditLease() error {
	if d.opts.Lease.MissBudget <= 0 || d.opts.FollowerAcks == nil {
		return nil
	}
	acked, _ := d.opts.FollowerAcks()
	d.mu.Lock()
	defer d.mu.Unlock()
	if acked > 0 {
		d.leaseMisses = 0
		return nil
	}
	d.leaseMisses++
	if d.leaseMisses >= d.opts.Lease.MissBudget && d.notLeader == nil {
		d.notLeader = fmt.Errorf("durable: no follower ack for %d heartbeat rounds: %w",
			d.leaseMisses, ErrLeaseExpired)
	}
	return d.notLeader
}

// Snapshot writes the full controller state to an atomically-replaced
// snapshot file and truncates WAL segments wholly covered by it.
// Returns the LSN the snapshot covers. Concurrent Snapshot calls are
// serialized end to end (snapMu), so the file on disk always covers
// the highest LSN any truncation was driven by.
func (d *DurableController) Snapshot() (uint64, error) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	// Quiesce mutations so the state matches an exact LSN boundary.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, fmt.Errorf("durable: controller closed")
	}
	lsn := d.log.LastLSN()
	if err := d.log.Commit(lsn); err != nil {
		d.mu.Unlock()
		return 0, err
	}
	var buf bytes.Buffer
	err := d.ctrl.WriteState(&buf)
	d.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := writeSnapshotFile(filepath.Join(d.opts.Dir, snapshotFile), lsn, d.epoch, buf.Bytes(), d.opts.NoSync); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.snapLSN = lsn
	d.mu.Unlock()
	if _, err := d.log.TruncateThrough(lsn); err != nil {
		return lsn, err
	}
	return lsn, nil
}

// SnapshotLSN reports the LSN covered by the latest snapshot.
func (d *DurableController) SnapshotLSN() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapLSN
}

// Close flushes and closes the WAL.
func (d *DurableController) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	return d.log.Close()
}

// writeSnapshotFile writes envelope+payload to a temp file and renames
// it into place, so a crash mid-write leaves the previous snapshot
// intact.
func writeSnapshotFile(path string, lsn, epoch uint64, payload []byte, noSync bool) error {
	var hdr [envelopeBytes]byte
	copy(hdr[:8], snapshotMagic)
	hdr[8] = 0
	hdr[9] = snapshotVersion
	putU64(hdr[10:], lsn)
	putU64(hdr[18:], epoch)
	putU64(hdr[26:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[34:], sum[:])

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if noSync {
		return nil
	}
	// The rename is durable only once the directory is: until then the
	// caller must not truncate the log the new snapshot covers.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return err
	}
	return dir.Close()
}

// readSnapshotFile validates the envelope and returns the payload, the
// covered LSN, and the writing leader's epoch. A missing file returns
// os.ErrNotExist; any corruption (bad magic, version, length, or
// checksum) is an explicit error — never a silent partial restore.
func readSnapshotFile(path string) ([]byte, uint64, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(b) < envelopeBytes {
		return nil, 0, 0, fmt.Errorf("durable: snapshot %s: short envelope (%d bytes)", path, len(b))
	}
	if string(b[:8]) != snapshotMagic {
		return nil, 0, 0, fmt.Errorf("durable: snapshot %s: bad magic", path)
	}
	ver := int(b[8])<<8 | int(b[9])
	if ver != snapshotVersion {
		return nil, 0, 0, fmt.Errorf("durable: snapshot %s: version %d, want %d", path, ver, snapshotVersion)
	}
	lsn := getU64(b[10:])
	epoch := getU64(b[18:])
	plen := getU64(b[26:])
	payload := b[envelopeBytes:]
	if uint64(len(payload)) != plen {
		return nil, 0, 0, fmt.Errorf("durable: snapshot %s: payload %d bytes, envelope says %d", path, len(payload), plen)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], b[34:34+32]) {
		return nil, 0, 0, fmt.Errorf("durable: snapshot %s: checksum mismatch", path)
	}
	return payload, lsn, epoch, nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}
