package controller

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file is the controller's one whole-state format: membership
// plus the computed encodings and their s-rule installations, in a
// deterministic binary form. The paper's controller keeps only soft
// state (§2) — membership, from which every rule is recomputable — but
// re-running the encoder on restore is slow and, on a
// capacity-constrained fabric, can legally land s-rules on different
// switches than the crashed instance had (the encoder's choices depend
// on table occupancy, which depends on op history). A recovered
// instance must be byte-identical to the one that crashed, so the
// stream keeps the encoder's choices and ReadState recommits occupancy
// from them: no re-encode, no history dependence. A membership-only
// rebuild is what WAL replay of RecCreate and InstallBatch records
// already does (internal/durable).
//
// A group record is its key, its members, then its encoding: the pod
// bitmap and the tree tables (each receiver leaf with its host ports,
// each receiver pod with its leaves), each layer's section (per rule
// its switch list and bitmap, then a default flag and bitmap), each
// layer's s-rules (switch and tree bitmap), and the leaf, spine and
// total redundancy. Of the encoding only the choices are free: each
// p-rule's switch list, in order, and the s-rule switches. The rest
// follows from them and the members (§3.2): the tree from the
// receivers, a rule's bitmap as the OR of its switches' tree bitmaps,
// the default flag and bitmap from the switches no rule or s-rule
// names, an s-rule's bitmap as its switch's tree bitmap, and the
// redundancies as the spurious ports these send to. ReadState reads
// the choices, derives the rest with the encoder's code (buildTree,
// deriveLayer) and accepts a record only if the derived group writes
// it back byte for byte.
//
// The format is versioned and deliberately simple: uvarint-framed,
// sorted group and host order, bitmap wire bytes with widths implied by
// the topology. Fingerprint hashes exactly these bytes, so two
// controllers with equal fingerprints have identical groups, members,
// encodings, and (derived) occupancy.

// stateVersion guards the binary state format.
const stateVersion = 1

// stateChunkGroups is the number of consecutive groups in one
// WriteState or ReadState chunk: the unit a worker serializes, or
// derives and writes back.
const stateChunkGroups = 128

// stateWriter appends the WriteState encoding to b.
type stateWriter struct {
	b      []byte
	topo   *topology.Topology
	layout header.Layout
	leaves []topology.LeafID // the receivers' leaves, ascending
	pods   []topology.PodID  // the receivers' pods, ascending
	err    error             // the first section the header.RuleWalker refused
}

func (sw *stateWriter) uvarint(v uint64) { sw.b = binary.AppendUvarint(sw.b, v) }

func (sw *stateWriter) bitmap(b bitmap.Bitmap) { sw.b = b.AppendWire(sw.b) }

// writeTable writes the switches of an ascending list with their tree
// bitmaps: its length, then (switch, bitmap) pairs.
func writeTable[K ~int](sw *stateWriter, ids []K, tree map[K]bitmap.Bitmap) {
	sw.uvarint(uint64(len(ids)))
	for _, k := range ids {
		sw.uvarint(uint64(k))
		sw.bitmap(tree[k])
	}
}

// group writes one group's record: key, members, encoding.
func (sw *stateWriter) group(key GroupKey, g *GroupState) {
	sw.uvarint(uint64(key.Tenant))
	sw.uvarint(uint64(key.Group))
	sw.uvarint(uint64(len(g.Members)))
	for _, m := range g.Members {
		sw.uvarint(uint64(m.Host))
		sw.b = append(sw.b, byte(m.Role))
	}
	sw.b = append(sw.b, 1) // encoding present: every live group has one
	sw.encoding(g.Members, g.Enc)
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
			sw.b, sw.topo, sw.layout, sw.err = sw.b[:0], c.topo, l, nil
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

// encoding serializes one group's encoding: its tree as the pod bitmap
// and two tables, one entry per receiver leaf and per receiver pod in
// ascending order, then each layer's section, its s-rules and the
// redundancies. The tables' keys come from the ascending members, as
// hosts are numbered leaf-major and leaves pod-major: buildTree gives
// the tree maps exactly these keys.
func (sw *stateWriter) encoding(members []Member, e *Encoding) {
	sw.leaves, sw.pods = sw.leaves[:0], sw.pods[:0]
	for _, m := range members {
		if !m.Role.CanReceive() {
			continue
		}
		if l := sw.topo.HostLeaf(m.Host); len(sw.leaves) == 0 || sw.leaves[len(sw.leaves)-1] != l {
			sw.leaves = append(sw.leaves, l)
			if p := sw.topo.LeafPod(l); len(sw.pods) == 0 || sw.pods[len(sw.pods)-1] != p {
				sw.pods = append(sw.pods, p)
			}
		}
	}
	sw.bitmap(e.Pods)
	writeTable(sw, sw.leaves, e.LeafPorts)
	writeTable(sw, sw.pods, e.PodLeaves)
	sw.section(e.DSpineSection)
	sw.section(e.DLeafSection)
	writeTable(sw, e.SpineSRules, e.PodLeaves)
	writeTable(sw, e.LeafSRules, e.LeafPorts)
	sw.uvarint(uint64(e.LeafRedundancy))
	sw.uvarint(uint64(e.SpineRedundancy))
	sw.uvarint(uint64(e.Redundancy()))
}

// section writes a downstream section in the state form: its rule
// count, then per rule the identifier count, the identifiers as
// uvarints (not at the header's packed width) and the bitmap, then a
// default flag and, when set, the default bitmap. TestStateFormatGolden
// pins these bytes.
func (sw *stateWriter) section(section []byte) {
	sw.uvarint(uint64(header.RuleCount(section)))
	var w header.RuleWalker
	w.Reset(sw.layout, section)
	for w.Next() {
		sw.uvarint(uint64(w.N))
		for i := range w.N {
			sw.uvarint(uint64(w.Switch(i)))
		}
		sw.b = append(sw.b, w.Ports...)
	}
	def, rest, err := w.End()
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("downstream section has %d bytes after its default rule", len(rest))
	}
	if def != nil {
		sw.b = append(append(sw.b, 1), def...)
	} else {
		sw.b = append(sw.b, 0)
	}
	if err != nil && sw.err == nil {
		sw.err = fmt.Errorf("controller: state: %w", err)
	}
}

// stateReader decodes a WriteState stream held in memory. No input
// makes it panic: the first field it refuses sets err, and every read
// after it returns zero, so a caller checks err once, after a group. It
// reads each record's choices — each layer's p-rule switches and s-rule
// switches — into scratch reused from group to group, and writes the
// group derived from them back into back.
type stateReader struct {
	buf      []byte // the stream: the record being read is buf[rec:off]
	rec, off int
	err      error

	topo   *topology.Topology
	layout header.Layout
	ids    []uint16          // the tree tables' keys, read and dropped
	rules  [2][]header.PRule // per layer (spine, leaf): its p-rules' switches
	srules [2][]uint16       // per layer: its s-rule switches
	enc    EncodeScratch     // the tree and sections being derived
	back   stateWriter       // the derived record
}

// fail records the first field refused.
func (sr *stateReader) fail(format string, args ...any) {
	if sr.err == nil {
		sr.err = fmt.Errorf(format, args...)
	}
}

// skip consumes n bytes, reporting whether there were n: a bitmap is
// derived, and only the write-back reads it.
func (sr *stateReader) skip(n int) bool {
	if sr.err != nil || len(sr.buf)-sr.off < n {
		sr.fail("truncated")
		return false
	}
	sr.off += n
	return true
}

func (sr *stateReader) byte() byte {
	if !sr.skip(1) {
		return 0
	}
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
// Each group's encoding is derived from its record's choices and
// written back, in chunks on one worker per P: a record is accepted
// only as the exact bytes its derived group writes. Occupancy is
// recommitted from the encodings; update counters reset (recovery is a
// bulk push).
func (c *Controller) ReadState(r io.Reader) error {
	var in bytes.Buffer
	if _, err := io.Copy(&in, r); err != nil {
		return fmt.Errorf("controller: state: %w", err)
	}
	l := header.LayoutFor(c.topo)
	newReader := func() stateReader {
		return stateReader{buf: in.Bytes(), topo: c.topo, layout: l, back: stateWriter{topo: c.topo, layout: l}}
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
		rec := sr.off
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
		// No writer emits a group without its encoding, and every reader
		// of GroupState.Enc (install, occupancy) assumes one.
		if flag := sr.byte(); flag != 1 {
			sr.fail("bad encoding flag %d", flag)
		}
		enc := sr.off
		if sr.choices(); sr.err != nil {
			return fmt.Errorf("controller: state group %v: %w", key, sr.err)
		}
		groups = append(groups, loadedGroup{g: g, rec: rec, enc: enc})
	}
	// WriteState ends with the last group: whatever follows is not state
	// this reader understood, and accepting it would lose it silently.
	if sr.off != len(sr.buf) {
		return fmt.Errorf("controller: state has trailing data after the last group")
	}
	// Every record is framed: derive and write back the groups in chunks
	// on one worker per P, reporting the first refusal in stream order.
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

// loadedGroup is a group read by ReadState: its record is the stream
// from rec, and its encoding's from enc.
type loadedGroup struct {
	g        *GroupState
	rec, enc int
}

// restore derives lg's encoding from its record's choices with the
// encoder's code — buildTree makes the tree from the receivers,
// deriveLayer each layer's section, s-rules and redundancy — and refuses
// the group unless it writes back exactly the bytes of the record: the
// one check that the stored tree, bitmaps, default flags and
// redundancies are the derived ones.
func (sr *stateReader) restore(lg loadedGroup) {
	sr.rec, sr.off = lg.rec, lg.enc
	sr.choices() // read once already, without error
	s := &sr.enc
	s.receivers = appendHosts(s.receivers[:0], lg.g.Members, Role.CanReceive)
	e := buildTree(sr.topo, s.receivers, nil, s)
	var err error
	if e.DLeafSection, e.DLeafDefault, e.LeafSRules, e.LeafRedundancy, err = deriveLayer[topology.LeafID](
		"leaf", header.TagDLeaf, sr.layout, sr.topo.LeafDownWidth(), s.leaves, s.leafStamp, s.leafSlot, s.leafBms, sr.rules[1], sr.srules[1], s); err == nil {
		e.DSpineSection, e.DSpineDefault, e.SpineSRules, e.SpineRedundancy, err = deriveLayer[topology.PodID](
			"pod", header.TagDSpine, sr.layout, sr.topo.SpineDownWidth(), s.pods, s.podStamp, s.podSlot, s.podBms, sr.rules[0], sr.srules[0], s)
	}
	if err == nil {
		lg.g.Enc, sr.back.b = e, sr.back.b[:0]
		if sr.back.group(lg.g.Key, lg.g); sr.back.err != nil {
			err = sr.back.err
		} else if !bytes.Equal(sr.back.b, sr.buf[sr.rec:sr.off]) {
			err = errors.New("record differs from the record its members and rule choices derive")
		}
	}
	if err != nil {
		sr.err = fmt.Errorf("controller: state group %v: %w", lg.g.Key, err)
	}
}

// choices reads the rest of a group record, after its members: the
// tree, each layer's section, its s-rules and the redundancies. It keeps
// only the choices, each layer's p-rule switches and s-rule switches;
// every other field is derived from them and the members, so its bytes
// are read for the write-back alone.
func (sr *stateReader) choices() {
	limits := [2]uint64{uint64(sr.topo.Config().Pods), uint64(sr.topo.NumLeaves())} // per layer: spine, leaf
	widths := [2]int{sr.topo.SpineDownWidth(), sr.topo.LeafDownWidth()}
	sr.skip(bitmap.ByteLen(sr.topo.CoreDownWidth()))
	sr.ids = sr.table("tree leaf", limits[1], widths[1], sr.ids[:0])
	sr.ids = sr.table("tree pod", limits[0], widths[0], sr.ids[:0])
	for i := range 2 {
		sr.rules[i] = sr.section(sr.rules[i], widths[i], limits[i])
	}
	for i, what := range [2]string{"s-rule pod", "s-rule leaf"} {
		sr.srules[i] = sr.table(what, limits[i], widths[i], sr.srules[i][:0])
	}
	sr.uvarint() // the leaf, spine and total redundancy
	sr.uvarint()
	sr.uvarint()
}

// table reads a switch table as writeTable writes it: at most limit
// entries, keys strictly ascending and below limit, each with a bitmap
// of the given width. It appends the keys to ids; the bitmaps are the
// switches' tree bitmaps, and only their bytes are read.
func (sr *stateReader) table(what string, limit uint64, width int, ids []uint16) []uint16 {
	var prev uint64
	for i := range sr.count(limit, what) {
		k := sr.uvarint()
		if k >= limit {
			sr.fail("%s %d outside topology", what, k)
		} else if i > 0 && k <= prev {
			sr.fail("%s %d out of order", what, k)
		}
		prev = k
		ids = append(ids, uint16(k))
		sr.skip(bitmap.ByteLen(width))
	}
	return ids
}

// section reads what stateWriter.section wrote for one layer, keeping
// the switch list of each rule in rules, reused from group to group, at
// most the header's limits: the rule and default bitmaps are derived.
// Switch ids are below maxSwitch; bitmaps have the given width.
func (sr *stateReader) section(rules []header.PRule, width int, maxSwitch uint64) []header.PRule {
	n := sr.count(header.MaxRulesPerSection, "p-rule")
	rules = slices.Grow(rules[:0], n)[:n]
	for i := range rules {
		r := &rules[i]
		r.Switches = r.Switches[:0]
		for range sr.count(min(maxSwitch, header.MaxSwitchesPerRule), "rule-switch") {
			sw := sr.uvarint()
			if sw >= maxSwitch {
				sr.fail("rule switch %d out of range", sw)
			}
			r.Switches = append(r.Switches, uint16(sw))
		}
		sr.skip(bitmap.ByteLen(width))
	}
	switch flag := sr.byte(); flag {
	case 0:
	case 1:
		sr.skip(bitmap.ByteLen(width))
	default:
		sr.fail("bad default flag %d", flag)
	}
	return rules
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
