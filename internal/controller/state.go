package controller

import (
	"bufio"
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

// This file serializes the controller's FULL state — membership plus
// the computed encodings and their s-rule installations — in a
// deterministic binary form. It differs from Snapshot/Restore
// (snapshot.go) on purpose: the JSON snapshot carries only the paper's
// soft state and recomputes encodings on restore, which is correct but
// slow and, on a capacity-constrained fabric, can legally land s-rules
// on different switches than the crashed instance had (the encoder's
// choices depend on table occupancy, which depends on op history).
// The durable controller needs the recovered instance to be
// byte-identical to the one that crashed, so its snapshots use
// WriteState/ReadState: encodings are restored verbatim and occupancy
// is recommitted from them, no recompute, no history dependence.
//
// The format is versioned and deliberately simple: uvarint-framed,
// sorted group order, bitmap wire bytes with widths implied by the
// topology. Fingerprint hashes exactly these bytes, so two controllers
// with equal fingerprints have identical groups, members, encodings,
// and (derived) occupancy.

// stateVersion guards the binary state format.
const stateVersion = 1

// WriteState serializes the full controller state deterministically.
func (c *Controller) WriteState(w io.Writer) error {
	c.rlockAllShards()
	defer c.runlockAllShards()
	bw := bufio.NewWriterSize(w, 1<<20)
	var scratch []byte
	putUvarint := func(v uint64) {
		scratch = binary.AppendUvarint(scratch[:0], v)
		bw.Write(scratch)
	}
	putBitmap := func(b bitmap.Bitmap) {
		scratch = b.AppendWire(scratch[:0])
		bw.Write(scratch)
	}

	putUvarint(stateVersion)
	groups := make(map[GroupKey]*GroupState, c.numGroupsLocked())
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
	putUvarint(uint64(len(keys)))
	for _, key := range keys {
		g := groups[key]
		putUvarint(uint64(key.Tenant))
		putUvarint(uint64(key.Group))
		hosts := make([]topology.HostID, 0, len(g.Members))
		for h := range g.Members {
			hosts = append(hosts, h)
		}
		slices.Sort(hosts)
		putUvarint(uint64(len(hosts)))
		for _, h := range hosts {
			putUvarint(uint64(h))
			bw.WriteByte(byte(g.Members[h]))
		}
		if g.Enc == nil {
			bw.WriteByte(0)
			continue
		}
		bw.WriteByte(1)
		writeEncoding(bw, putUvarint, putBitmap, g.Enc)
	}
	return bw.Flush()
}

// writeEncoding serializes one encoding (sorted map order throughout).
func writeEncoding(bw *bufio.Writer, putUvarint func(uint64), putBitmap func(bitmap.Bitmap), e *Encoding) {
	putBitmap(e.Pods)

	leaves := make([]topology.LeafID, 0, len(e.LeafPorts))
	for l := range e.LeafPorts {
		leaves = append(leaves, l)
	}
	slices.Sort(leaves)
	putUvarint(uint64(len(leaves)))
	for _, l := range leaves {
		putUvarint(uint64(l))
		putBitmap(e.LeafPorts[l])
	}

	pods := make([]topology.PodID, 0, len(e.PodLeaves))
	for p := range e.PodLeaves {
		pods = append(pods, p)
	}
	slices.Sort(pods)
	putUvarint(uint64(len(pods)))
	for _, p := range pods {
		putUvarint(uint64(p))
		putBitmap(e.PodLeaves[p])
	}

	writeRules := func(rules []header.PRule) {
		putUvarint(uint64(len(rules)))
		for _, r := range rules {
			putUvarint(uint64(len(r.Switches)))
			for _, sw := range r.Switches {
				putUvarint(uint64(sw))
			}
			putBitmap(r.Bitmap)
		}
	}
	writeDefault := func(d *bitmap.Bitmap) {
		if d == nil {
			bw.WriteByte(0)
			return
		}
		bw.WriteByte(1)
		putBitmap(*d)
	}
	writeRules(e.DSpine)
	writeDefault(e.DSpineDefault)
	writeRules(e.DLeaf)
	writeDefault(e.DLeafDefault)

	spods := make([]topology.PodID, 0, len(e.SpineSRules))
	for p := range e.SpineSRules {
		spods = append(spods, p)
	}
	slices.Sort(spods)
	putUvarint(uint64(len(spods)))
	for _, p := range spods {
		putUvarint(uint64(p))
		putBitmap(e.SpineSRules[p])
	}

	sleaves := make([]topology.LeafID, 0, len(e.LeafSRules))
	for l := range e.LeafSRules {
		sleaves = append(sleaves, l)
	}
	slices.Sort(sleaves)
	putUvarint(uint64(len(sleaves)))
	for _, l := range sleaves {
		putUvarint(uint64(l))
		putBitmap(e.LeafSRules[l])
	}

	putUvarint(uint64(e.LeafRedundancy))
	putUvarint(uint64(e.SpineRedundancy))
	putUvarint(uint64(e.Redundancy))
}

// stateReader decodes the WriteState stream with bounds checking; any
// malformed input surfaces as an error, never a panic.
type stateReader struct {
	r   *bufio.Reader
	buf []byte
}

func (sr *stateReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return 0, fmt.Errorf("controller: state truncated: %w", err)
	}
	return v, nil
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
	n := bitmap.ByteLen(width)
	if cap(sr.buf) < n {
		sr.buf = make([]byte, n)
	}
	sr.buf = sr.buf[:n]
	if _, err := io.ReadFull(sr.r, sr.buf); err != nil {
		return bitmap.Bitmap{}, fmt.Errorf("controller: state truncated bitmap: %w", err)
	}
	b, _, err := bitmap.FromWire(width, sr.buf)
	if err != nil {
		return bitmap.Bitmap{}, fmt.Errorf("controller: state bitmap: %w", err)
	}
	return b, nil
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
	sr := &stateReader{r: bufio.NewReaderSize(r, 1<<20)}
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
		g := &GroupState{Key: key, Members: make(map[topology.HostID]Role, nm)}
		for mi := 0; mi < nm; mi++ {
			h, err := sr.uvarint()
			if err != nil {
				return err
			}
			if h >= numHosts {
				return fmt.Errorf("controller: state host %d outside topology", h)
			}
			role, err := sr.r.ReadByte()
			if err != nil {
				return fmt.Errorf("controller: state truncated role: %w", err)
			}
			if Role(role) == 0 || Role(role)&^RoleBoth != 0 {
				return fmt.Errorf("controller: state host %d has invalid role %d", h, role)
			}
			g.Members[topology.HostID(h)] = Role(role)
		}
		hasEnc, err := sr.r.ReadByte()
		if err != nil {
			return fmt.Errorf("controller: state truncated: %w", err)
		}
		switch hasEnc {
		case 0:
		case 1:
			enc, err := sr.readEncoding(c.topo)
			if err != nil {
				return fmt.Errorf("controller: state group %v: %w", key, err)
			}
			g.Enc = enc
		default:
			return fmt.Errorf("controller: state group %v: bad encoding flag %d", key, hasEnc)
		}
		groups = append(groups, loadedGroup{key: key, g: g})
	}

	// Decode finished without error: commit atomically.
	c.lockAll()
	defer c.unlockAll()
	if n := c.numGroupsLocked(); n != 0 {
		return fmt.Errorf("controller: state restore into non-empty controller (%d groups)", n)
	}
	for _, lg := range groups {
		c.shardOf(lg.key).groups[lg.key] = lg.g
		c.occ.Commit(lg.g.Enc)
	}
	for _, sh := range c.shards {
		sh.stats = newUpdateStats()
	}
	return nil
}

// readEncoding decodes one encoding with topology-derived widths.
func (sr *stateReader) readEncoding(topo *topology.Topology) (*Encoding, error) {
	e := &Encoding{}
	var err error
	if e.Pods, err = sr.bitmap(topo.CoreDownWidth()); err != nil {
		return nil, err
	}
	numLeaves := uint64(topo.NumLeaves())
	numPods := uint64(topo.Config().Pods)

	n, err := sr.count(numLeaves, "leaf-ports")
	if err != nil {
		return nil, err
	}
	e.LeafPorts = make(map[topology.LeafID]bitmap.Bitmap, n)
	for i := 0; i < n; i++ {
		l, err := sr.uvarint()
		if err != nil {
			return nil, err
		}
		if l >= numLeaves {
			return nil, fmt.Errorf("leaf %d outside topology", l)
		}
		bm, err := sr.bitmap(topo.LeafDownWidth())
		if err != nil {
			return nil, err
		}
		e.LeafPorts[topology.LeafID(l)] = bm
	}

	n, err = sr.count(numPods, "pod-leaves")
	if err != nil {
		return nil, err
	}
	e.PodLeaves = make(map[topology.PodID]bitmap.Bitmap, n)
	for i := 0; i < n; i++ {
		p, err := sr.uvarint()
		if err != nil {
			return nil, err
		}
		if p >= numPods {
			return nil, fmt.Errorf("pod %d outside topology", p)
		}
		bm, err := sr.bitmap(topo.SpineDownWidth())
		if err != nil {
			return nil, err
		}
		e.PodLeaves[topology.PodID(p)] = bm
	}

	readRules := func(width int, maxSwitch uint64) ([]header.PRule, error) {
		n, err := sr.count(1<<16, "p-rule")
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		rules := make([]header.PRule, n)
		for i := range rules {
			ns, err := sr.count(maxSwitch, "rule-switch")
			if err != nil {
				return nil, err
			}
			sws := make([]uint16, ns)
			for j := range sws {
				sw, err := sr.uvarint()
				if err != nil {
					return nil, err
				}
				if sw >= maxSwitch {
					return nil, fmt.Errorf("rule switch %d out of range", sw)
				}
				sws[j] = uint16(sw)
			}
			bm, err := sr.bitmap(width)
			if err != nil {
				return nil, err
			}
			rules[i] = header.PRule{Switches: sws, Bitmap: bm}
		}
		return rules, nil
	}
	readDefault := func(width int) (*bitmap.Bitmap, error) {
		flag, err := sr.r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("truncated default flag: %w", err)
		}
		switch flag {
		case 0:
			return nil, nil
		case 1:
			bm, err := sr.bitmap(width)
			if err != nil {
				return nil, err
			}
			return &bm, nil
		default:
			return nil, fmt.Errorf("bad default flag %d", flag)
		}
	}

	if e.DSpine, err = readRules(topo.SpineDownWidth(), numPods); err != nil {
		return nil, err
	}
	if e.DSpineDefault, err = readDefault(topo.SpineDownWidth()); err != nil {
		return nil, err
	}
	if e.DLeaf, err = readRules(topo.LeafDownWidth(), numLeaves); err != nil {
		return nil, err
	}
	if e.DLeafDefault, err = readDefault(topo.LeafDownWidth()); err != nil {
		return nil, err
	}

	n, err = sr.count(numPods, "spine-srule")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		e.SpineSRules = make(map[topology.PodID]bitmap.Bitmap, n)
		for i := 0; i < n; i++ {
			p, err := sr.uvarint()
			if err != nil {
				return nil, err
			}
			if p >= numPods {
				return nil, fmt.Errorf("s-rule pod %d outside topology", p)
			}
			bm, err := sr.bitmap(topo.SpineDownWidth())
			if err != nil {
				return nil, err
			}
			e.SpineSRules[topology.PodID(p)] = bm
		}
	}

	n, err = sr.count(numLeaves, "leaf-srule")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		e.LeafSRules = make(map[topology.LeafID]bitmap.Bitmap, n)
		for i := 0; i < n; i++ {
			l, err := sr.uvarint()
			if err != nil {
				return nil, err
			}
			if l >= numLeaves {
				return nil, fmt.Errorf("s-rule leaf %d outside topology", l)
			}
			bm, err := sr.bitmap(topo.LeafDownWidth())
			if err != nil {
				return nil, err
			}
			e.LeafSRules[topology.LeafID(l)] = bm
		}
	}

	lr, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	sp, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	tot, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	e.LeafRedundancy, e.SpineRedundancy, e.Redundancy = int(lr), int(sp), int(tot)
	return e, nil
}

// Fingerprint hashes the full controller state (WriteState bytes):
// equal fingerprints mean identical groups, members, encodings, and
// s-rule occupancy. Update counters are excluded — a recovered
// controller legitimately starts with fresh stats.
func (c *Controller) Fingerprint() string {
	h := sha256.New()
	if err := c.WriteState(h); err != nil {
		// WriteState only fails on writer errors; sha256 never errors.
		return "fingerprint-error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
