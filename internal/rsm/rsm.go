// Package rsm implements a leader-based replicated state machine — one
// of the paper's motivating one-to-many workloads (§1: "replicated
// state machines", citing Paxos and Speculative Paxos). A leader
// sequences commands and replicates them to follower replicas over
// Elmo multicast with the PGM-style reliable layer providing gap
// repair and in-order delivery; every replica applies the same command
// sequence and therefore reaches the same state.
//
// This is deliberately the NOPaxos/Speculative-Paxos deployment shape
// the paper alludes to: the network's multicast does the fan-out (one
// copy per link instead of one unicast stream per replica), and the
// application layers ordering/recovery on top.
package rsm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"elmo/internal/controller"
	"elmo/internal/fabric"
	"elmo/internal/reliable"
	"elmo/internal/topology"
)

// Op is a state-machine command type.
type Op uint8

const (
	// OpSet stores Key=Value.
	OpSet Op = 1
	// OpDelete removes Key.
	OpDelete Op = 2
	// OpApply carries an opaque payload in Value for the replica's
	// applier hook (SetApplier). This is how the durable controller
	// streams WAL records to warm followers: the RSM provides ordered
	// reliable fan-out, the applier interprets the bytes.
	OpApply Op = 3
)

func validOp(op Op) bool { return op == OpSet || op == OpDelete || op == OpApply }

// Command is one replicated state-machine command. Epoch is the
// leadership term of the proposer: replicas remember the highest epoch
// they have applied and silently discard commands from a lower one, so
// a deposed leader's in-flight stream cannot be interleaved with the
// new leader's. Epoch 0 is the lowest epoch: what a proposer without
// durable leadership stamps, fenced like any other once a replica has
// applied a higher one.
type Command struct {
	Op    Op
	Epoch uint64
	Key   string
	Value string
}

// Marshal encodes the command: op(1) | epoch(8) | keyLen(2) | key |
// value. The value runs to the end of the command, so it needs no
// length prefix and has no cap: a whole WAL record rides in one.
func (c Command) Marshal() ([]byte, error) {
	if !validOp(c.Op) {
		return nil, fmt.Errorf("rsm: unknown op %d", c.Op)
	}
	if len(c.Key) > 0xffff {
		return nil, fmt.Errorf("rsm: key too long")
	}
	b := make([]byte, 0, 11+len(c.Key)+len(c.Value))
	b = append(b, byte(c.Op))
	b = binary.BigEndian.AppendUint64(b, c.Epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.Key)))
	b = append(b, c.Key...)
	b = append(b, c.Value...)
	return b, nil
}

// UnmarshalCommand decodes a command. It is strict: the op must be
// known and the key must fit, so Marshal∘UnmarshalCommand is the
// identity on valid commands and a truncated header or key surfaces as
// an error instead of silent data loss.
func UnmarshalCommand(b []byte) (Command, error) {
	var c Command
	if len(b) < 11 {
		return c, fmt.Errorf("rsm: short command")
	}
	c.Op = Op(b[0])
	if !validOp(c.Op) {
		return c, fmt.Errorf("rsm: unknown op %d", c.Op)
	}
	c.Epoch = binary.BigEndian.Uint64(b[1:])
	kl := int(binary.BigEndian.Uint16(b[9:]))
	if 11+kl > len(b) {
		return c, fmt.Errorf("rsm: truncated key")
	}
	c.Key = string(b[11 : 11+kl])
	c.Value = string(b[11+kl:])
	return c, nil
}

// Replica is one state machine instance: a key-value store built by
// applying the leader's command log in order, plus an optional applier
// hook that receives OpApply payloads.
type Replica struct {
	host    topology.HostID
	store   map[string]string
	applied int
	epoch   uint64 // highest epoch applied; lower-epoch commands are fenced
	applier func(epoch uint64, payload []byte) error
}

// NewReplica creates an empty replica for a host.
func NewReplica(host topology.HostID) *Replica {
	return &Replica{host: host, store: make(map[string]string)}
}

// SetApplier installs the hook invoked (in log order) for every
// OpApply command's payload, along with the proposer's epoch. Without
// a hook, OpApply commands advance the log position but are otherwise
// ignored — a replica that only cares about the KV portion of a mixed
// stream stays consistent.
func (r *Replica) SetApplier(fn func(epoch uint64, payload []byte) error) { r.applier = fn }

// Apply executes one command payload (called in log order). A command
// stamped with a lower epoch than the highest this replica has seen is
// a deposed leader's residue: it advances the log position but is
// never applied.
func (r *Replica) Apply(payload []byte) error {
	c, err := UnmarshalCommand(payload)
	if err != nil {
		return err
	}
	if c.Epoch < r.epoch {
		r.applied++
		return nil
	}
	r.epoch = c.Epoch
	switch c.Op {
	case OpSet:
		r.store[c.Key] = c.Value
	case OpDelete:
		delete(r.store, c.Key)
	case OpApply:
		if r.applier != nil {
			if err := r.applier(c.Epoch, []byte(c.Value)); err != nil {
				return fmt.Errorf("rsm: applier: %w", err)
			}
		}
	}
	r.applied++
	return nil
}

// Epoch reports the highest leadership epoch this replica has applied
// a command from.
func (r *Replica) Epoch() uint64 { return r.epoch }

// Get reads a key.
func (r *Replica) Get(key string) (string, bool) {
	v, ok := r.store[key]
	return v, ok
}

// Applied reports the number of commands applied.
func (r *Replica) Applied() int { return r.applied }

// Fingerprint returns a canonical rendering of the state, used to
// compare replicas for convergence.
func (r *Replica) Fingerprint() string {
	keys := make([]string, 0, len(r.store))
	for k := range r.store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "=" + r.store[k] + ";"
	}
	return out
}

// Cluster is a leader plus follower replicas bound to one multicast
// group on a fabric.
type Cluster struct {
	session  *reliable.Session
	leader   topology.HostID
	replicas map[topology.HostID]*Replica
	// Proposed counts commands the leader has sequenced.
	Proposed int
}

// NewCluster creates the group (leader sends, replicas receive),
// installs it, and builds the replication session.
func NewCluster(ctrl *controller.Controller, fab *fabric.Fabric, key controller.GroupKey, leader topology.HostID, followers []topology.HostID, window int) (*Cluster, error) {
	members := map[topology.HostID]controller.Role{leader: controller.RoleSender}
	for _, f := range followers {
		if f == leader {
			return nil, fmt.Errorf("rsm: leader cannot be a follower")
		}
		members[f] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		return nil, err
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		return nil, err
	}
	sess, err := reliable.NewSession(fab, ctrl, key, leader, window)
	if err != nil {
		return nil, err
	}
	c := &Cluster{session: sess, leader: leader, replicas: make(map[topology.HostID]*Replica, len(followers))}
	for _, f := range followers {
		c.replicas[f] = NewReplica(f)
	}
	return c, nil
}

// Session exposes the underlying reliable session (e.g. to inject loss
// in tests).
func (c *Cluster) Session() *reliable.Session { return c.session }

// Propose replicates one command. Followers apply everything the
// reliable layer delivers in order.
func (c *Cluster) Propose(cmd Command) error {
	payload, err := cmd.Marshal()
	if err != nil {
		return err
	}
	if err := c.session.Publish(payload); err != nil {
		return err
	}
	c.Proposed++
	return c.drain()
}

// ProposeApplyAt replicates an opaque payload as an OpApply command
// stamped with the proposer's leadership epoch. Followers that do not
// fence the epoch hand the payload to their applier hook (SetApplier)
// in log order.
func (c *Cluster) ProposeApplyAt(epoch uint64, payload []byte) error {
	return c.Propose(Command{Op: OpApply, Epoch: epoch, Value: string(payload)})
}

// Sync forces a final repair round (tail-loss recovery) and applies
// everything outstanding.
func (c *Cluster) Sync() error {
	if err := c.session.Flush(); err != nil {
		return err
	}
	return c.drain()
}

// drain applies newly delivered payloads to each replica.
func (c *Cluster) drain() error {
	for h, r := range c.replicas {
		delivered := c.session.Delivered(h)
		for r.applied < len(delivered) {
			if err := r.Apply(delivered[r.applied]); err != nil {
				return fmt.Errorf("rsm: replica %d: %w", h, err)
			}
		}
	}
	return nil
}

// Replica returns a follower's state machine.
func (c *Cluster) Replica(h topology.HostID) *Replica { return c.replicas[h] }

// Converged reports whether every replica has applied every proposed
// command and all fingerprints agree.
func (c *Cluster) Converged() (bool, string) {
	var want string
	first := true
	for _, r := range c.replicas {
		if r.Applied() != c.Proposed {
			return false, fmt.Sprintf("replica %d applied %d of %d", r.host, r.Applied(), c.Proposed)
		}
		fp := r.Fingerprint()
		if first {
			want, first = fp, false
		} else if fp != want {
			return false, "fingerprint divergence"
		}
	}
	return true, ""
}
