package controller

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
// recomputing on restore is slow and, on a capacity-constrained fabric,
// can legally land s-rules on different switches than the crashed
// instance had (the encoder's choices depend on table occupancy, which
// depends on op history). A recovered instance must be byte-identical
// to the one that crashed, so ReadState restores encodings verbatim and
// recommits occupancy from them: no recompute, no history dependence.
// A membership-only rebuild is what WAL replay of RecCreate and
// InstallBatch records already does (internal/durable).
//
// The format is versioned and deliberately simple: uvarint-framed,
// sorted group and host order, bitmap wire bytes with widths implied by
// the topology. Fingerprint hashes exactly these bytes, so two
// controllers with equal fingerprints have identical groups, members,
// encodings, and (derived) occupancy.

// stateVersion guards the binary state format.
const stateVersion = 1

// stateChunkGroups is the number of consecutive groups of the sorted
// key list in one WriteState chunk: the unit a worker serializes and
// the caller writes.
const stateChunkGroups = 128

// stateWriter appends the WriteState encoding to b.
type stateWriter struct {
	b      []byte
	keys   []int // writeBitmapMap's sort scratch
	layout header.Layout
	err    error // the first section the header.RuleWalker refused
}

func (sw *stateWriter) uvarint(v uint64) { sw.b = binary.AppendUvarint(sw.b, v) }

func (sw *stateWriter) bitmap(b bitmap.Bitmap) { sw.b = b.AppendWire(sw.b) }

// writeBitmapMap writes a switch→bitmap map as its length followed by
// (key, bitmap) pairs in ascending key order.
func writeBitmapMap[K ~int](sw *stateWriter, m map[K]bitmap.Bitmap) {
	sw.keys = sw.keys[:0]
	for k := range m {
		sw.keys = append(sw.keys, int(k))
	}
	slices.Sort(sw.keys)
	sw.uvarint(uint64(len(sw.keys)))
	for _, k := range sw.keys {
		sw.uvarint(uint64(k))
		sw.bitmap(m[K(k)])
	}
}

// writeSRules writes an ascending s-rule list in writeBitmapMap's
// layout: each switch with the bitmap its entry holds, its tree bitmap.
func writeSRules[K ~int](sw *stateWriter, ids []K, tree map[K]bitmap.Bitmap) {
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
	sw.encoding(g.Enc)
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

// encoding serializes one encoding (sorted map order throughout).
func (sw *stateWriter) encoding(e *Encoding) {
	sw.bitmap(e.Pods)
	writeBitmapMap(sw, e.LeafPorts)
	writeBitmapMap(sw, e.PodLeaves)
	sw.section(e.DSpineSection)
	sw.section(e.DLeafSection)
	writeSRules(sw, e.SpineSRules, e.PodLeaves)
	writeSRules(sw, e.LeafSRules, e.LeafPorts)
	sw.uvarint(uint64(e.LeafRedundancy))
	sw.uvarint(uint64(e.SpineRedundancy))
	sw.uvarint(uint64(e.Redundancy))
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

// stateReader decodes the WriteState stream with bounds checking; any
// malformed input surfaces as an error, never a panic.
type stateReader struct {
	r     *bufio.Reader
	buf   []byte
	srule bitmap.Bitmap // an s-rule's bitmap, compared and dropped

	// A downstream section is read into rules and def, reused from
	// section to section, and written as header bytes into sec.
	layout header.Layout
	rules  []header.PRule
	def    bitmap.Bitmap
	sec    []byte
}

// uvarint reads one varint in the form WriteState writes: minimal, so
// a padded one — whose longer form ends in a zero byte — is refused, as
// the stream would not re-encode to the bytes it was read from.
func (sr *stateReader) uvarint() (uint64, error) {
	var v uint64
	for i := 0; ; i++ {
		b, err := sr.r.ReadByte()
		switch {
		case err != nil:
			return 0, fmt.Errorf("controller: state truncated: %w", err)
		case i == binary.MaxVarintLen64-1 && b > 1:
			return 0, fmt.Errorf("controller: state varint overflows 64 bits")
		case b == 0 && i > 0:
			return 0, fmt.Errorf("controller: state non-minimal varint")
		case b < 0x80:
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
}

// count reads a length that bounds a following repetition; cap guards
// absurd values from corrupt input before any allocation.
func (sr *stateReader) count(cap uint64, what string) (int, error) {
	v, err := sr.uvarint()
	if err != nil {
		return 0, err
	}
	if v > cap {
		return 0, fmt.Errorf("controller: state %s count %d exceeds bound %d", what, v, cap)
	}
	return int(v), nil
}

func (sr *stateReader) bitmap(width int) (bitmap.Bitmap, error) {
	var b bitmap.Bitmap
	err := sr.bitmapInto(width, &b)
	return b, err
}

// bitmapInto decodes a bitmap of the given width into b, reusing its
// words when wide enough.
func (sr *stateReader) bitmapInto(width int, b *bitmap.Bitmap) error {
	n := bitmap.ByteLen(width)
	if cap(sr.buf) < n {
		sr.buf = make([]byte, n)
	}
	sr.buf = sr.buf[:n]
	if _, err := io.ReadFull(sr.r, sr.buf); err != nil {
		return fmt.Errorf("controller: state truncated bitmap: %w", err)
	}
	if _, err := bitmap.FromWireInto(width, sr.buf, b); err != nil {
		return fmt.Errorf("controller: state bitmap: %w", err)
	}
	return nil
}

// ReadState restores a controller from a WriteState stream. The
// receiving controller must be empty; on any decode or validation
// error it is left empty (all-or-nothing), never half-restored.
// Encodings are installed verbatim and occupancy recommitted from
// them; update counters reset (recovery is a bulk push).
func (c *Controller) ReadState(r io.Reader) error {
	type loadedGroup struct {
		key GroupKey
		g   *GroupState
	}
	sr := &stateReader{r: bufio.NewReaderSize(r, 1<<20), layout: header.LayoutFor(c.topo)}
	version, err := sr.uvarint()
	if err != nil {
		return err
	}
	if version != stateVersion {
		return fmt.Errorf("controller: state version %d, want %d", version, stateVersion)
	}
	numHosts := uint64(c.topo.NumHosts())
	numGroups, err := sr.count(1<<48, "group")
	if err != nil {
		return err
	}
	groups := make([]loadedGroup, 0, min(numGroups, 1<<20))
	seen := GroupKey{}
	for gi := 0; gi < numGroups; gi++ {
		tenant, err := sr.uvarint()
		if err != nil {
			return err
		}
		group, err := sr.uvarint()
		if err != nil {
			return err
		}
		if tenant > 0xffffffff || group > 0xffffffff {
			return fmt.Errorf("controller: state key out of range")
		}
		key := GroupKey{Tenant: uint32(tenant), Group: uint32(group)}
		if gi > 0 && (key.Tenant < seen.Tenant || (key.Tenant == seen.Tenant && key.Group <= seen.Group)) {
			return fmt.Errorf("controller: state groups out of order at %v", key)
		}
		seen = key
		nm, err := sr.count(numHosts, "member")
		if err != nil {
			return err
		}
		g := &GroupState{Key: key, Members: make([]Member, 0, nm)}
		var prev uint64
		for mi := 0; mi < nm; mi++ {
			h, err := sr.uvarint()
			if err != nil {
				return err
			}
			if h >= numHosts {
				return fmt.Errorf("controller: state host %d outside topology", h)
			}
			if mi > 0 && h <= prev {
				return fmt.Errorf("controller: state group %v hosts out of order at %d", key, h)
			}
			prev = h
			role, err := sr.r.ReadByte()
			if err != nil {
				return fmt.Errorf("controller: state truncated role: %w", err)
			}
			if Role(role) == 0 || Role(role)&^RoleBoth != 0 {
				return fmt.Errorf("controller: state host %d has invalid role %d", h, role)
			}
			g.Members = append(g.Members, Member{Host: topology.HostID(h), Role: Role(role)})
		}
		hasEnc, err := sr.r.ReadByte()
		if err != nil {
			return fmt.Errorf("controller: state truncated: %w", err)
		}
		// No writer emits a group without its encoding, and every reader
		// of GroupState.Enc (install, occupancy) assumes one.
		if hasEnc != 1 {
			return fmt.Errorf("controller: state group %v: bad encoding flag %d", key, hasEnc)
		}
		if g.Enc, err = sr.readEncoding(c.topo); err == nil {
			err = checkTree(c.topo, g.Members, g.Enc)
		}
		if err != nil {
			return fmt.Errorf("controller: state group %v: %w", key, err)
		}
		groups = append(groups, loadedGroup{key: key, g: g})
	}
	// WriteState ends with the last group: whatever follows is not state
	// this reader understood, and accepting it would lose it silently.
	switch _, err := sr.r.ReadByte(); {
	case err == nil:
		return fmt.Errorf("controller: state has trailing data after the last group")
	case err != io.EOF:
		return fmt.Errorf("controller: state: %w", err)
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
		c.groups[lg.key] = lg.g
		c.occ.Commit(lg.g.Enc)
	}
	c.stats = newUpdateStats()
	return nil
}

// checkTree refuses an encoding whose Redundancy is not the sum of its
// layers', or whose tree is not the one its receivers span: each
// receiver's port, leaf and pod set, and no other entry or bit. Members
// ascend leaf-major, so each leaf and pod is looked up once, and no map
// is ranged over.
func checkTree(topo *topology.Topology, members []Member, e *Encoding) error {
	if e.Redundancy != e.LeafRedundancy+e.SpineRedundancy {
		return fmt.Errorf("redundancy %d is not %d + %d", e.Redundancy, e.LeafRedundancy, e.SpineRedundancy)
	}
	var span, set [3]int // receivers, their leaves and their pods; the bits the tree sets for each
	var ports, leaves bitmap.Bitmap
	pod := topology.PodID(-1)
	var first, next topology.HostID // the hosts of the last leaf looked up: first, next-1
	for _, m := range members {
		if m.Role&RoleReceiver == 0 {
			continue
		}
		if m.Host >= next {
			l := topo.HostLeaf(m.Host)
			first = topo.HostAt(l, 0)
			next = first + topology.HostID(topo.LeafDownWidth())
			if p := topo.LeafPod(l); p != pod {
				pod, leaves, span[2] = p, e.PodLeaves[p], span[2]+1
				set[1] += leaves.PopCount()
			}
			ports, span[1] = e.LeafPorts[l], span[1]+1
			set[0] += ports.PopCount()
			if ports.Width() == 0 || leaves.Width() == 0 || !leaves.Test(topo.LeafIndexInPod(l)) || !e.Pods.Test(int(pod)) {
				return fmt.Errorf("receiver leaf %d is not on the tree", l)
			}
		}
		if span[0]++; !ports.Test(int(m.Host - first)) { // hosts are numbered leaf-major
			return fmt.Errorf("receiver %d's port is clear in its leaf's tree bitmap", m.Host)
		}
	}
	// Every receiver leaf and pod has an entry, so equal counts leave no
	// other entry, and equal sums no other bit.
	if set[2] = e.Pods.PopCount(); set != span || len(e.LeafPorts) != span[1] || len(e.PodLeaves) != span[2] {
		return fmt.Errorf("tree sets %v ports, leaves and pods in %d leaf and %d pod entries; its receivers span %v",
			set, len(e.LeafPorts), len(e.PodLeaves), span)
	}
	return nil
}

// readBitmapMap decodes a tree map written by writeBitmapMap: at most
// limit entries, keys strictly ascending and below limit, every bitmap
// of the given width. what names the section in errors.
func readBitmapMap[K ~int](sr *stateReader, what string, limit uint64, width int) (map[K]bitmap.Bitmap, error) {
	n, err := sr.count(limit, what)
	if err != nil {
		return nil, err
	}
	m := make(map[K]bitmap.Bitmap, n)
	for i, prev := 0, -1; i < n; i++ {
		k, err := sr.key(what, limit, prev)
		if err != nil {
			return nil, err
		}
		prev = int(k)
		if m[K(k)], err = sr.bitmap(width); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// readSRules decodes an s-rule list written by writeSRules against the
// group's tree: every switch must be on it and carry exactly its tree
// bitmap, the only bitmap an entry can hold. The bitmaps are checked and
// dropped; the switch IDs are kept, and an empty list is nil — the
// shape the encoder produces.
func readSRules[K ~int](sr *stateReader, what string, limit uint64, width int, tree map[K]bitmap.Bitmap) ([]K, error) {
	n, err := sr.count(limit, what)
	if err != nil || n == 0 {
		return nil, err
	}
	ids := make([]K, n)
	for i, prev := 0, -1; i < n; i++ {
		k, err := sr.key(what, limit, prev)
		if err != nil {
			return nil, err
		}
		prev = int(k)
		if err := sr.bitmapInto(width, &sr.srule); err != nil {
			return nil, err
		}
		ports, ok := tree[K(k)]
		if !ok {
			return nil, fmt.Errorf("%s %d is not on the group's tree", what, k)
		}
		if !sr.srule.Equal(ports) {
			return nil, fmt.Errorf("%s %d holds ports %s, its tree bitmap is %s", what, k, sr.srule, ports)
		}
		ids[i] = K(k)
	}
	return ids, nil
}

// key reads one switch key of a table: below limit and above prev, the
// key before it (-1 for the first). A repeated key would collapse into
// one entry and the restored state would not re-serialise to the stream
// it was read from.
func (sr *stateReader) key(what string, limit uint64, prev int) (uint64, error) {
	k, err := sr.uvarint()
	if err != nil {
		return 0, err
	}
	if k >= limit {
		return 0, fmt.Errorf("%s %d outside topology", what, k)
	}
	if int(k) <= prev {
		return 0, fmt.Errorf("%s %d out of order", what, k)
	}
	return k, nil
}

// section decodes what stateWriter.section wrote for the downstream
// section with the given tag: switch ids below maxSwitch, bitmaps of the
// given width. The rules are read into reused scratch and written
// through header.AppendDownstream, so a section the header cannot carry
// is refused; the one allocation is the returned bytes, at their exact
// size (nil for an absent section). It also reports whether the section
// holds a default rule.
func (sr *stateReader) section(tag byte, width int, maxSwitch uint64) ([]byte, bool, error) {
	n, err := sr.count(1<<16, "p-rule")
	if err != nil {
		return nil, false, err
	}
	sr.rules = slices.Grow(sr.rules[:0], n)[:n]
	for i := range sr.rules {
		r := &sr.rules[i]
		ns, err := sr.count(maxSwitch, "rule-switch")
		if err != nil {
			return nil, false, err
		}
		r.Switches = r.Switches[:0]
		for range ns {
			sw, err := sr.uvarint()
			if err != nil {
				return nil, false, err
			}
			if sw >= maxSwitch {
				return nil, false, fmt.Errorf("rule switch %d out of range", sw)
			}
			r.Switches = append(r.Switches, uint16(sw))
		}
		if err := sr.bitmapInto(width, &r.Bitmap); err != nil {
			return nil, false, err
		}
	}
	flag, err := sr.r.ReadByte()
	if err != nil {
		return nil, false, fmt.Errorf("truncated default flag: %w", err)
	}
	var def *bitmap.Bitmap
	switch flag {
	case 0:
	case 1:
		if err := sr.bitmapInto(width, &sr.def); err != nil {
			return nil, false, err
		}
		def = &sr.def
	default:
		return nil, false, fmt.Errorf("bad default flag %d", flag)
	}
	if sr.sec, err = header.AppendDownstream(sr.sec[:0], sr.layout, tag, sr.rules, def, header.KeepAll); err != nil {
		return nil, false, err
	}
	if len(sr.sec) == 0 {
		return nil, false, nil
	}
	return bytes.Clone(sr.sec), def != nil, nil
}

// readEncoding decodes one encoding with topology-derived widths.
func (sr *stateReader) readEncoding(topo *topology.Topology) (*Encoding, error) {
	e := &Encoding{}
	numLeaves, leafWidth := uint64(topo.NumLeaves()), topo.LeafDownWidth()
	numPods, spineWidth := uint64(topo.Config().Pods), topo.SpineDownWidth()
	var err error
	if e.Pods, err = sr.bitmap(topo.CoreDownWidth()); err != nil {
		return nil, err
	}
	if e.LeafPorts, err = readBitmapMap[topology.LeafID](sr, "tree leaf", numLeaves, leafWidth); err != nil {
		return nil, err
	}
	if e.PodLeaves, err = readBitmapMap[topology.PodID](sr, "tree pod", numPods, spineWidth); err != nil {
		return nil, err
	}
	if e.DSpineSection, e.DSpineDefault, err = sr.section(header.TagDSpine, spineWidth, numPods); err != nil {
		return nil, err
	}
	if e.DLeafSection, e.DLeafDefault, err = sr.section(header.TagDLeaf, leafWidth, numLeaves); err != nil {
		return nil, err
	}
	if e.SpineSRules, err = readSRules(sr, "s-rule pod", numPods, spineWidth, e.PodLeaves); err != nil {
		return nil, err
	}
	if e.LeafSRules, err = readSRules(sr, "s-rule leaf", numLeaves, leafWidth, e.LeafPorts); err != nil {
		return nil, err
	}
	var red [3]uint64
	for i := range red {
		if red[i], err = sr.uvarint(); err != nil {
			return nil, err
		}
	}
	e.LeafRedundancy, e.SpineRedundancy, e.Redundancy = int(red[0]), int(red[1]), int(red[2])
	return e, nil
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
