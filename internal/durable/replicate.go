package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"elmo/internal/controller"
	"elmo/internal/fabric"
	"elmo/internal/rsm"
	"elmo/internal/topology"
	"elmo/internal/wal"
)

// This file wires the durable controller's WAL stream through the RSM
// multicast layer: the leader's Replicate hook proposes every logged
// record as an OpApply command, the network fans it out (one copy per
// link, the paper's whole point), and each follower host applies it to
// a warm standby controller. When the leader is declared dead the
// standby promotes: its in-memory state becomes the snapshot seed of a
// fresh durable controller, so failover cost is a state serialization,
// not a full log replay.

// Follower maintains a warm standby controller by applying streamed
// WAL records in order.
type Follower struct {
	ctrl    *controller.Controller
	records int
	epoch   uint64 // highest leadership epoch seen in the stream
}

// NewFollower builds an empty standby for the given fabric shape.
func NewFollower(topo *topology.Topology, cfg controller.Config) (*Follower, error) {
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		return nil, err
	}
	return &Follower{ctrl: ctrl}, nil
}

// NewFollowerFromState builds a warm standby pre-seeded with a
// leader's serialized state and epoch (ResyncState on the leader).
// This is the rejoin path: a healed, deposed leader resyncs from the
// successor's snapshot and re-enters the cluster as a follower
// instead of replaying a log it can no longer extend.
func NewFollowerFromState(topo *topology.Topology, cfg controller.Config, epoch uint64, state []byte) (*Follower, error) {
	f, err := NewFollower(topo, cfg)
	if err != nil {
		return nil, err
	}
	if err := f.ctrl.ReadState(bytes.NewReader(state)); err != nil {
		return nil, fmt.Errorf("durable: resync state: %w", err)
	}
	f.epoch = epoch
	return f, nil
}

// Apply consumes one replicated WAL record payload stamped with the
// proposing leader's epoch, through the same applyRecord crash
// recovery uses. Stale-epoch records never reach this hook — the rsm
// replica fences them first.
func (f *Follower) Apply(epoch uint64, payload []byte) error {
	if epoch > f.epoch {
		f.epoch = epoch
	}
	if err := applyRecord(f.ctrl, payload); err != nil {
		return err
	}
	f.records++
	return nil
}

// Controller exposes the standby state (for fingerprint checks and
// promotion).
func (f *Follower) Controller() *controller.Controller { return f.ctrl }

// Records reports how many stream records this follower has applied.
func (f *Follower) Records() int { return f.records }

// Epoch reports the highest leadership epoch this follower has seen
// in the stream (or was seeded with). Promote mints its successor.
func (f *Follower) Epoch() uint64 { return f.epoch }

// ReplicaSetConfig wires a replication group onto a fabric.
type ReplicaSetConfig struct {
	// Net is the controller that routes the replication multicast
	// group itself (the network control plane — usually distinct from
	// the controller state being replicated).
	Net *fabricNet
	// Key identifies the replication group.
	Key controller.GroupKey
	// Leader is the durable controller's host; Followers run standbys.
	Leader    topology.HostID
	Followers []topology.HostID
	// Window is the reliable session's retransmit window.
	Window int
	// Topo/Cfg describe the fabric the REPLICATED controller manages
	// (standbys are built with the same shape as the leader).
	Topo *topology.Topology
	Cfg  controller.Config
}

// fabricNet bundles the network control plane and data plane a
// replica set multicasts over.
type fabricNet struct {
	Ctrl *controller.Controller
	Fab  *fabric.Fabric
}

// Net pairs the controller and fabric carrying the replication group.
func Net(ctrl *controller.Controller, fab *fabric.Fabric) *fabricNet {
	return &fabricNet{Ctrl: ctrl, Fab: fab}
}

// ReplicaSet is a leader's view of its warm standbys.
type ReplicaSet struct {
	cluster   *rsm.Cluster
	followers map[topology.HostID]*Follower
	leader    topology.HostID
	streamed  int // records handed to the stream by the Replicator
}

// NewReplicaSet creates the replication multicast group and a warm
// standby per follower host.
func NewReplicaSet(rc ReplicaSetConfig) (*ReplicaSet, error) {
	cluster, err := rsm.NewCluster(rc.Net.Ctrl, rc.Net.Fab, rc.Key, rc.Leader, rc.Followers, rc.Window)
	if err != nil {
		return nil, err
	}
	rs := &ReplicaSet{cluster: cluster, followers: make(map[topology.HostID]*Follower, len(rc.Followers)), leader: rc.Leader}
	for _, h := range rc.Followers {
		f, err := NewFollower(rc.Topo, rc.Cfg)
		if err != nil {
			return nil, err
		}
		rs.followers[h] = f
		rs.cluster.Replica(h).SetApplier(f.Apply)
	}
	return rs, nil
}

// Replicator returns the hook to plug into Options.Replicate. Every
// record is proposed with the leader's epoch stamped on it, arming
// the replicas' fencing against a deposed leader's residue.
func (rs *ReplicaSet) Replicator() func(lsn, epoch uint64, payload []byte) error {
	return func(lsn, epoch uint64, payload []byte) error {
		if err := rs.cluster.ProposeApplyAt(epoch, payload); err != nil {
			return err
		}
		rs.streamed++
		return nil
	}
}

// FollowerAcks reports how many followers have applied every record
// streamed so far (the lease's currency) and the follower total. The
// multicast fabric delivers synchronously, so a reachable follower is
// always caught up by the time the propose returns; one that is not
// is on the far side of a loss or partition.
func (rs *ReplicaSet) FollowerAcks() (acked, total int) {
	for _, f := range rs.followers {
		if f.Records() >= rs.streamed {
			acked++
		}
	}
	return acked, len(rs.followers)
}

// AdoptFollower replaces the standby for host h with f — the rejoin
// path. A healed, deposed leader resyncs from the successor's state
// (ResyncState + NewFollowerFromState) and is adopted into the
// successor's replica set; session repair then replays anything
// proposed between the resync and the adoption. Replays of ops the
// resync already covered are no-ops on controller state (the op-level
// errors are ignored, same as any follower apply).
func (rs *ReplicaSet) AdoptFollower(h topology.HostID, f *Follower) error {
	r := rs.cluster.Replica(h)
	if r == nil {
		return fmt.Errorf("durable: host %d is not in the replica set", h)
	}
	rs.followers[h] = f
	r.SetApplier(f.Apply)
	return nil
}

// Sync forces a repair round so every follower catches up (tail-loss
// recovery before a fingerprint check or a promotion).
func (rs *ReplicaSet) Sync() error { return rs.cluster.Sync() }

// Follower returns a host's standby.
func (rs *ReplicaSet) Follower(h topology.HostID) *Follower { return rs.followers[h] }

// Detector declares a leader dead after DeadAfter consecutive probe
// rounds in which a follower's applied-record count fails to advance.
// The leader keeps the stream moving with Heartbeat() even when idle,
// so "no new records" genuinely means "leader silent", not "no load".
type Detector struct {
	// DeadAfter is the miss budget (probe rounds without progress).
	DeadAfter int
	misses    int
	last      int
	dead      bool
}

// Observe feeds one probe round's applied-record count; it returns
// true once the leader has been declared dead (latched).
func (d *Detector) Observe(records int) bool {
	if d.dead {
		return true
	}
	if records > d.last {
		d.last = records
		d.misses = 0
		return false
	}
	d.misses++
	if d.misses >= d.DeadAfter {
		d.dead = true
	}
	return d.dead
}

// Promote turns a warm standby into a new durable controller rooted at
// opts.Dir: the standby's state is written as the initial snapshot and
// a fresh WAL starts after it. Promotion mints the next leadership
// epoch — one above the highest the standby saw in the old leader's
// stream — and records it durably in the snapshot envelope and every
// subsequent WAL frame, so the new leader's installs fence the old
// one's everywhere they meet.
// opts.Dir must be a fresh directory: the snapshot is written at LSN
// 0, so one already holding WAL segments (e.g. the dead leader's)
// would replay stale records from LSN 1 on top of the standby state —
// Promote refuses such a directory instead of corrupting itself.
func Promote(f *Follower, opts Options) (*DurableController, *RecoveryStats, error) {
	if minted := f.Epoch() + 1; minted > opts.Epoch {
		opts.Epoch = minted
	}
	if segs, err := filepath.Glob(filepath.Join(opts.Dir, "wal", "*.wal")); err != nil {
		return nil, nil, err
	} else if len(segs) > 0 {
		return nil, nil, fmt.Errorf("durable: promote into %s: wal already holds %d segments (needs a fresh directory)", opts.Dir, len(segs))
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, snapshotFile)); err == nil {
		return nil, nil, fmt.Errorf("durable: promote into %s: snapshot already exists (needs a fresh directory)", opts.Dir)
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := f.ctrl.WriteState(&buf); err != nil {
		return nil, nil, err
	}
	if err := wal.MkdirAll(opts.Dir, opts.NoSync, opts.dirSynced); err != nil {
		return nil, nil, err
	}
	if err := writeSnapshotFile(filepath.Join(opts.Dir, snapshotFile), 0, opts.Epoch, buf.Bytes(), opts.NoSync); err != nil {
		return nil, nil, err
	}
	return Open(f.ctrl.Topology(), f.ctrl.Config(), opts)
}
