package controller

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"

	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file is the controller's one whole-state format: membership
// plus each group's encoder choices, in a deterministic binary form.
// The paper's controller keeps only soft state (§2) — membership, from
// which every rule is recomputable — but re-running the encoder on
// restore is slow and, on a capacity-constrained fabric, can legally
// land s-rules on different switches than the crashed instance had (the
// encoder's choices depend on table occupancy, which depends on op
// history). A recovered instance must be byte-identical to the one that
// crashed, so the stream keeps the encoder's choices and ReadState
// recommits occupancy from them: no re-encode, no history dependence. A
// membership-only rebuild is what WAL replay of RecCreate and
// InstallBatch records already does (internal/durable).
//
// A group record is its key, its members, then per layer (spine, then
// leaf) the choices of its encoding: each p-rule's switch list, in
// order, and the s-rule switches, ascending. Nothing else is stored, as
// the rest follows from these and the members (§3.2): the tree from the
// receivers, a rule's bitmap as the OR of its switches' tree bitmaps,
// the default rule from the switches no rule or s-rule names, an
// s-rule's bitmap as its switch's tree bitmap, and the redundancies as
// the spurious ports these send to. ReadState derives the rest with the
// encoder's code (Tree, deriveLayer) and accepts the group only if
// this controller's encoder could have made it (admissible).
//
// The format is versioned: a change to it bumps stateVersion, and a
// stream of another version is refused by its first byte. Fields are
// minimal uvarints in sorted group and host order. Fingerprint hashes exactly these bytes; as
// the choices determine the whole encoding, two controllers with equal
// fingerprints have identical groups, members, encodings, and (derived)
// occupancy.

// stateVersion guards the binary state format.
const stateVersion = 2

// stateChunkGroups is the number of consecutive groups in one
// WriteState or ReadState chunk: the unit a worker serializes, or
// derives.
const stateChunkGroups = 128

// stateWriter appends the WriteState encoding to b.
type stateWriter struct {
	b      []byte
	layout header.Layout
	err    error // the first section the header.RuleWalker refused
}

func (sw *stateWriter) uvarint(v uint64) { sw.b = binary.AppendUvarint(sw.b, v) }

// group writes one group's record: key, members, then per layer its
// p-rule switch lists and its s-rule switches.
func (sw *stateWriter) group(key GroupKey, g *GroupState) {
	sw.uvarint(uint64(key.Tenant))
	sw.uvarint(uint64(key.Group))
	sw.uvarint(uint64(len(g.Members)))
	for _, m := range g.Members {
		sw.uvarint(uint64(m.Host))
		sw.b = append(sw.b, byte(m.Role))
	}
	e := g.Enc
	sw.rules(e.DSpineSection)
	writeIDs(sw, e.SpineSRules)
	sw.rules(e.DLeafSection)
	writeIDs(sw, e.LeafSRules)
}

// writeIDs writes an ascending switch list: its length, then the ids.
func writeIDs[K ~int](sw *stateWriter, ids []K) {
	sw.uvarint(uint64(len(ids)))
	for _, k := range ids {
		sw.uvarint(uint64(k))
	}
}

// rules writes the p-rule choices of a downstream section: its rule
// count, then per rule the identifier count and the identifiers. The
// bitmaps and the default rule are derived, and not written.
func (sw *stateWriter) rules(section []byte) {
	sw.uvarint(uint64(header.RuleCount(section)))
	var w header.RuleWalker
	w.Reset(sw.layout, section)
	for w.Next() {
		sw.uvarint(uint64(w.N))
		for i := range w.N {
			sw.uvarint(uint64(w.Switch(i)))
		}
	}
	_, rest, err := w.End()
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("downstream section has %d bytes after its default rule", len(rest))
	}
	if err != nil && sw.err == nil {
		sw.err = fmt.Errorf("controller: state: %w", err)
	}
}

// WriteState serializes the full controller state deterministically.
// The groups go out in chunks of consecutive keys, serialized on one
// worker per P and written by the caller in key order (inOrder), so the
// bytes are the same for every worker count. Every worker has exited
// before the read lock is released. The first write error is returned,
// and nothing is written after it.
func (c *Controller) WriteState(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := c.sortedKeysLocked()
	l := header.LayoutFor(c.topo)
	head := binary.AppendUvarint(binary.AppendUvarint(nil, stateVersion), uint64(len(keys)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	return inOrder((len(keys)+stateChunkGroups-1)/stateChunkGroups, 0,
		func(ci int, sw *stateWriter) {
			sw.b, sw.layout, sw.err = sw.b[:0], l, nil
			for _, key := range keys[ci*stateChunkGroups : min((ci+1)*stateChunkGroups, len(keys))] {
				sw.group(key, c.groups[key])
			}
		},
		func(_ int, sw *stateWriter) error {
			if sw.err != nil {
				return sw.err
			}
			_, err := w.Write(sw.b)
			return err
		})
}

// stateReader decodes a WriteState stream held in memory. No input
// makes it panic: the first field it refuses sets err, and every read
// after it returns zero, so a caller checks err once, after a group. It
// reads each record's choices — each layer's p-rule switches and s-rule
// switches — into scratch reused from group to group.
type stateReader struct {
	buf []byte // the stream
	off int    // the next byte to read
	err error

	topo   *topology.Topology
	cfg    Config
	layout header.Layout
	rules  [2][]header.PRule // per layer (spine, leaf): its p-rules' switches
	srules [2][]uint16       // per layer: its s-rule switches
	enc    EncodeScratch     // the tree and sections being derived
}

// fail records the first field refused.
func (sr *stateReader) fail(format string, args ...any) {
	if sr.err == nil {
		sr.err = fmt.Errorf(format, args...)
	}
}

func (sr *stateReader) byte() byte {
	if sr.err != nil || sr.off == len(sr.buf) {
		sr.fail("truncated")
		return 0
	}
	sr.off++
	return sr.buf[sr.off-1]
}

// uvarint reads one varint in the form WriteState writes: minimal, so
// a padded one — whose longer form ends in a zero byte — is refused, as
// the stream would not re-encode to the bytes it was read from.
func (sr *stateReader) uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	var v uint64
	for i, b := range sr.buf[sr.off:min(len(sr.buf), sr.off+binary.MaxVarintLen64)] {
		switch {
		case i == binary.MaxVarintLen64-1 && b > 1:
			sr.fail("varint overflows 64 bits")
			return 0
		case b == 0 && i > 0:
			sr.fail("non-minimal varint")
			return 0
		case b < 0x80:
			sr.off += i + 1
			return v | uint64(b)<<(7*i)
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	sr.fail("truncated")
	return 0
}

// count reads a length that bounds a following repetition; cap guards
// absurd values from corrupt input before any allocation.
func (sr *stateReader) count(cap uint64, what string) int {
	v := sr.uvarint()
	if v > cap {
		sr.fail("%s count %d exceeds bound %d", what, v, cap)
		return 0
	}
	return int(v)
}

// ReadState restores a controller from a WriteState stream. The
// receiving controller must be empty; on any decode or validation
// error it is left empty (all-or-nothing), never half-restored.
// Each group's encoding is derived from its record's choices, in chunks
// on one worker per P, and a group is accepted only if this
// controller's encoder could have made its encoding (admissible): a
// restart or resync under a config that forbids a stored encoding is
// refused, naming the group and the bound. Occupancy is recommitted
// from the encodings; update counters reset (recovery is a bulk push).
func (c *Controller) ReadState(r io.Reader) error {
	var in bytes.Buffer
	if _, err := io.Copy(&in, r); err != nil {
		return fmt.Errorf("controller: state: %w", err)
	}
	l := header.LayoutFor(c.topo)
	newReader := func() stateReader {
		return stateReader{buf: in.Bytes(), topo: c.topo, cfg: c.cfg, layout: l}
	}
	sr := newReader()
	if v := sr.uvarint(); v != stateVersion {
		sr.fail("version %d, want %d", v, stateVersion)
	}
	numGroups, numHosts := sr.count(1<<48, "group"), uint64(c.topo.NumHosts())
	if sr.err != nil {
		return fmt.Errorf("controller: state: %w", sr.err)
	}
	groups := make([]loadedGroup, 0, min(numGroups, len(sr.buf))) // a record takes more than a byte
	for range numGroups {
		tenant, group := sr.uvarint(), sr.uvarint()
		key := GroupKey{Tenant: uint32(tenant), Group: uint32(group)}
		if tenant > 0xffffffff || group > 0xffffffff {
			sr.fail("key out of range")
		} else if n := len(groups); n > 0 && (key.Tenant < groups[n-1].g.Key.Tenant ||
			key.Tenant == groups[n-1].g.Key.Tenant && key.Group <= groups[n-1].g.Key.Group) {
			sr.fail("groups out of order")
		}
		g := &GroupState{Key: key, Members: make([]Member, 0, sr.count(numHosts, "member"))}
		for range cap(g.Members) {
			h := sr.uvarint()
			if h >= numHosts {
				sr.fail("host %d outside topology", h)
			} else if n := len(g.Members); n > 0 && h <= uint64(g.Members[n-1].Host) {
				sr.fail("hosts out of order at %d", h)
			}
			role := Role(sr.byte())
			if role == 0 || role&^RoleBoth != 0 {
				sr.fail("host %d has invalid role %d", h, role)
			}
			g.Members = append(g.Members, Member{Host: topology.HostID(h), Role: role})
		}
		enc := sr.off
		if sr.choices(); sr.err != nil {
			return fmt.Errorf("controller: state group %v: %w", key, sr.err)
		}
		groups = append(groups, loadedGroup{g: g, enc: enc})
	}
	// WriteState ends with the last group: whatever follows is not state
	// this reader understood, and accepting it would lose it silently.
	if sr.off != len(sr.buf) {
		return fmt.Errorf("controller: state has trailing data after the last group")
	}
	// Every record is framed: derive the groups in chunks on one worker
	// per P, reporting the first refusal in stream order.
	if err := inOrder((len(groups)+stateChunkGroups-1)/stateChunkGroups, 0,
		func(ci int, w *stateReader) {
			if w.topo == nil {
				*w = newReader()
			}
			for _, lg := range groups[ci*stateChunkGroups : min((ci+1)*stateChunkGroups, len(groups))] {
				if w.restore(lg); w.err != nil {
					return
				}
			}
		},
		func(_ int, w *stateReader) error { return w.err }); err != nil {
		return err
	}
	// A stream written under a larger Fmax (another -srules, or forged)
	// can hold more s-rules for one switch than this controller's
	// tables: tally them as the live counters would.
	tally := NewOccupancy(c.topo, c.occ.Capacity())
	for _, lg := range groups {
		tally.Commit(lg.g.Enc)
	}
	if most := int(max(slices.Max(tally.leaf), slices.Max(tally.spine))); most > c.occ.Capacity() {
		return fmt.Errorf("controller: state holds %d s-rules for one switch, capacity %d", most, c.occ.Capacity())
	}

	// Decode finished without error: commit atomically.
	c.occ.admit.Lock()
	defer c.occ.admit.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.groups); n != 0 {
		return fmt.Errorf("controller: state restore into non-empty controller (%d groups)", n)
	}
	for _, lg := range groups {
		c.groups[lg.g.Key] = lg.g
		c.occ.Commit(lg.g.Enc)
	}
	c.stats = newUpdateStats()
	return nil
}

// loadedGroup is a group read by ReadState, whose encoding's choices
// start at stream offset enc.
type loadedGroup struct {
	g   *GroupState
	enc int
}

// restore derives lg's encoding from its record's choices with the
// encoder's code — Tree.Read makes the tree from the members,
// deriveLayer each layer's section, s-rules and redundancy — and refuses
// the group unless its encoding is admissible under the reader's config.
func (sr *stateReader) restore(lg loadedGroup) {
	sr.off = lg.enc
	sr.choices() // read once already, without error
	s := &sr.enc
	s.tree.Read(sr.topo, lg.g.Members)
	e := &Encoding{}
	var err error
	if e.DLeafSection, e.DLeafDefault, e.LeafSRules, e.LeafRedundancy, err = deriveLayer[topology.LeafID](
		"leaf", header.TagDLeaf, sr.layout, sr.topo.LeafDownWidth(), s.tree.leaves, s.tree.leafBms, sr.rules[1], sr.srules[1], s); err == nil {
		e.DSpineSection, e.DSpineDefault, e.SpineSRules, e.SpineRedundancy, err = deriveLayer[topology.PodID](
			"pod", header.TagDSpine, sr.layout, sr.topo.SpineDownWidth(), s.tree.pods, s.tree.podBms, sr.rules[0], sr.srules[0], s)
	}
	if err == nil {
		err = admissible(sr.topo, sr.cfg, e, &s.tree)
	}
	if err != nil {
		sr.err = fmt.Errorf("controller: state group %v: %w", lg.g.Key, err)
		return
	}
	lg.g.Enc = e
}

// choices reads the rest of a group record, after its members: per
// layer, spine then leaf, each p-rule's switch list and the s-rule
// switches, into scratch reused from group to group. A rule lists at
// most the header's limits; switch ids lie inside the topology, and
// s-rule switches ascend.
func (sr *stateReader) choices() {
	limits := [2]uint64{uint64(sr.topo.Config().Pods), uint64(sr.topo.NumLeaves())} // per layer: spine, leaf
	whats := [2]string{"s-rule pod", "s-rule leaf"}
	for i, limit := range limits {
		n := sr.count(header.MaxRulesPerSection, "p-rule")
		rules := slices.Grow(sr.rules[i][:0], n)[:n]
		for j := range rules {
			r := &rules[j]
			r.Switches = r.Switches[:0]
			for range sr.count(min(limit, header.MaxSwitchesPerRule), "rule-switch") {
				sw := sr.uvarint()
				if sw >= limit {
					sr.fail("rule switch %d out of range", sw)
				}
				r.Switches = append(r.Switches, uint16(sw))
			}
		}
		sr.rules[i] = rules
		ids := sr.srules[i][:0]
		for j := range sr.count(limit, whats[i]) {
			k := sr.uvarint()
			if k >= limit {
				sr.fail("%s %d outside topology", whats[i], k)
			} else if j > 0 && k <= uint64(ids[j-1]) {
				sr.fail("%s %d out of order", whats[i], k)
			}
			ids = append(ids, uint16(k))
		}
		sr.srules[i] = ids
	}
}

// Fingerprint hashes the full controller state (WriteState bytes):
// equal fingerprints mean identical groups, members, encodings, and
// s-rule occupancy. Update counters are excluded — a recovered
// controller legitimately starts with fresh stats.
func (c *Controller) Fingerprint() string {
	h := sha256.New()
	if err := c.WriteState(h); err != nil {
		// WriteState fails on writer errors, which sha256 never returns,
		// and on a section no encoder writes.
		return "fingerprint-error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
