package controller

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"elmo/internal/topology"
	"elmo/internal/trace"
)

// The paper's controller keeps only soft state (§2): group membership
// and placement, from which every rule is recomputable. This file
// makes that explicit — a Snapshot carries exactly the soft state
// (members and roles per group), and Restore rebuilds a controller's
// encodings and occupancy deterministically from it. Providers use
// this for controller failover and for moving groups between
// controller shards.

// snapshotVersion guards the wire format.
const snapshotVersion = 1

// Snapshot is the serializable soft state of a controller.
type Snapshot struct {
	Version int             `json:"version"`
	Groups  []GroupSnapshot `json:"groups"`
}

// GroupSnapshot is one group's membership.
type GroupSnapshot struct {
	Tenant  uint32           `json:"tenant"`
	Group   uint32           `json:"group"`
	Members []MemberSnapshot `json:"members"`
}

// MemberSnapshot is one member with its role.
type MemberSnapshot struct {
	Host topology.HostID `json:"host"`
	Role Role            `json:"role"`
}

// Snapshot captures the controller's soft state. The output is
// deterministic (groups and members sorted).
func (c *Controller) Snapshot() *Snapshot {
	s := &Snapshot{Version: snapshotVersion}
	c.rlockAllShards()
	defer c.runlockAllShards()
	groups := make(map[GroupKey]*GroupState)
	for _, sh := range c.shards {
		for k, g := range sh.groups {
			groups[k] = g
		}
	}
	keys := make([]GroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	for _, key := range keys {
		g := groups[key]
		gs := GroupSnapshot{Tenant: key.Tenant, Group: key.Group}
		for h, r := range g.Members {
			gs.Members = append(gs.Members, MemberSnapshot{Host: h, Role: r})
		}
		slices.SortFunc(gs.Members, func(a, b MemberSnapshot) int { return cmp.Compare(a.Host, b.Host) })
		s.Groups = append(s.Groups, gs)
	}
	return s
}

// WriteSnapshot serializes the soft state as JSON.
func (c *Controller) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(c.Snapshot())
}

// Restore rebuilds a controller's state from a snapshot. The receiving
// controller must be empty (fresh failover instance). Every group's
// encoding and the s-rule occupancy are recomputed; update counters are
// not charged (reinstallation after failover is a bulk push, not
// incremental updates).
//
// Restore is all-or-nothing: it validates the whole snapshot before
// touching controller state, and if any group's encoding fails (e.g.
// the snapshot does not fit this fabric's tables) it unwinds every
// group already installed, leaving the controller empty rather than
// half-restored.
func (c *Controller) Restore(s *Snapshot) error {
	if s.Version != snapshotVersion {
		return fmt.Errorf("controller: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	// Validate before mutating anything.
	built := make([]*GroupState, 0, len(s.Groups))
	seen := make(map[GroupKey]bool, len(s.Groups))
	for _, gs := range s.Groups {
		key := GroupKey{Tenant: gs.Tenant, Group: gs.Group}
		if seen[key] {
			return fmt.Errorf("controller: snapshot repeats group %v", key)
		}
		seen[key] = true
		g := &GroupState{Key: key, Members: make(map[topology.HostID]Role, len(gs.Members))}
		for _, m := range gs.Members {
			if _, dup := g.Members[m.Host]; dup {
				return fmt.Errorf("controller: snapshot group %v repeats host %d", key, m.Host)
			}
			g.Members[m.Host] = m.Role
		}
		if err := c.validateMembers(g.Members); err != nil {
			return fmt.Errorf("controller: snapshot group %v: %w", key, err)
		}
		built = append(built, g)
	}
	c.lockAll()
	defer c.unlockAll()
	for _, sh := range c.shards {
		if len(sh.groups) != 0 {
			return fmt.Errorf("controller: restore into non-empty controller (%d groups)", c.numGroupsLocked())
		}
	}
	scratch := c.getScratch()
	defer c.putScratch(scratch)
	for i, g := range built {
		_, err := c.occ.admitEncodingLocked(nil, nil,
			func(cap CapacityFunc) (*Encoding, error) {
				return ComputeEncodingInto(c.topo, c.cfg, cap, g.Receivers(), scratch)
			},
			func(enc *Encoding) error {
				g.Enc = enc
				c.shardOf(g.Key).groups[g.Key] = g
				return nil
			})
		if err != nil {
			c.traceControl(trace.KindRollback, g.Key, -1, err.Error())
			// Unwind: release everything already committed so the
			// controller is exactly as empty as it started.
			for _, done := range built[:i] {
				c.occ.Release(done.Enc)
			}
			for _, sh := range c.shards {
				sh.groups = make(map[GroupKey]*GroupState)
			}
			return fmt.Errorf("controller: restoring %v: %w", g.Key, err)
		}
		c.traceEncode(g.Key, g.Enc)
	}
	for _, sh := range c.shards {
		sh.stats = newUpdateStats()
	}
	return nil
}

// numGroupsLocked counts groups with all shard locks already held.
func (c *Controller) numGroupsLocked() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh.groups)
	}
	return n
}

// ReadSnapshot parses a snapshot written by WriteSnapshot. Truncated
// streams, garbage bytes, and unknown versions all surface as errors;
// the returned snapshot, when non-nil, is structurally a snapshot this
// package could have written (Restore still validates its contents).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("controller: reading snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("controller: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	return &s, nil
}
