package controller

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// buildBusyController installs a few dozen groups with varied shapes
// (single-leaf, cross-pod, sender-only members) and some churn so the
// state stream exercises every encoding field.
func buildBusyController(t testing.TB, cfg Config) *Controller {
	t.Helper()
	topo := paperTopo()
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	n := topo.NumHosts()
	for gi := 0; gi < 40; gi++ {
		members := map[topology.HostID]Role{}
		size := 2 + rng.Intn(12)
		for len(members) < size {
			members[topology.HostID(rng.Intn(n))] = Role(1 + rng.Intn(3))
		}
		// Ensure at least one receiver so the tree is non-empty
		// (lowest host, so the history is deterministic).
		low := topology.HostID(-1)
		for h := range members {
			if low < 0 || h < low {
				low = h
			}
		}
		members[low] |= RoleReceiver
		key := GroupKey{Tenant: uint32(1 + gi%5), Group: uint32(100 + gi)}
		if _, err := c.CreateGroup(key, members); err != nil {
			t.Fatal(err)
		}
	}
	// Churn some groups so encodings come from the incremental path too.
	for gi := 0; gi < 20; gi++ {
		key := GroupKey{Tenant: uint32(1 + gi%5), Group: uint32(100 + gi)}
		h := topology.HostID(rng.Intn(n))
		_ = c.Join(key, h, RoleReceiver)
	}
	// Remove a couple so the map has holes relative to creation order.
	_ = c.RemoveGroup(GroupKey{Tenant: 1, Group: 100})
	_ = c.RemoveGroup(GroupKey{Tenant: 3, Group: 107})
	return c
}

func TestWriteReadStateRoundTrip(t *testing.T) {
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2 // force s-rules into the stream
	c1 := buildBusyController(t, cfg)

	var buf bytes.Buffer
	if err := c1.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	c2, _ := New(paperTopo(), cfg)
	if err := c2.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if c1.NumGroups() != c2.NumGroups() {
		t.Fatalf("group count %d != %d", c1.NumGroups(), c2.NumGroups())
	}
	for _, key := range c1.GroupKeys() {
		g1, g2 := c1.Group(key), c2.Group(key)
		if g2 == nil {
			t.Fatalf("group %v missing after restore", key)
		}
		if !reflect.DeepEqual(g1.Members, g2.Members) {
			t.Fatalf("group %v members differ", key)
		}
		if !reflect.DeepEqual(g1.Enc, g2.Enc) {
			t.Fatalf("group %v encoding differs", key)
		}
	}
	topo := c1.Topology()
	for l := 0; l < topo.NumLeaves(); l++ {
		if c1.occ.LeafCount(topology.LeafID(l)) != c2.occ.LeafCount(topology.LeafID(l)) {
			t.Fatalf("leaf %d occupancy differs", l)
		}
	}
	for s := 0; s < topo.NumSpines(); s++ {
		if c1.occ.SpineCount(topology.SpineID(s)) != c2.occ.SpineCount(topology.SpineID(s)) {
			t.Fatalf("spine %d occupancy differs", s)
		}
	}
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("fingerprints differ after state round trip")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	cfg := testConfig(0)
	c1 := buildBusyController(t, cfg)
	c2 := buildBusyController(t, cfg)
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("identical histories should fingerprint identically")
	}
	// One extra membership changes the fingerprint.
	if err := c2.Join(GroupKey{Tenant: 2, Group: 101}, 3, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	if c1.Fingerprint() == c2.Fingerprint() {
		t.Fatal("fingerprint blind to a membership change")
	}
}

func TestReadStateRejectsCorruptInput(t *testing.T) {
	cfg := testConfig(0)
	c1 := buildBusyController(t, cfg)
	var buf bytes.Buffer
	if err := c1.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Hand-built streams: one group whose member list or encoding flag is
	// malformed, and one valid group written twice.
	numHosts := uint64(paperTopo().NumHosts())
	group := func(body ...byte) []byte { return append([]byte{stateVersion, 1, 1, 1}, body...) }
	one, _ := New(paperTopo(), cfg)
	if _, err := one.CreateGroup(GroupKey{Tenant: 1, Group: 1}, map[topology.HostID]Role{0: RoleBoth, 9: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	var single bytes.Buffer
	if err := one.WriteState(&single); err != nil {
		t.Fatal(err)
	}
	body := single.Bytes()[2:] // after version and group count
	// The same stream with a table key rewritten. Its tree-leaf table
	// starts at byte 11 (count 2, leaf 0, bitmap, leaf 1, bitmap) and it
	// ends with two empty s-rule tables and three one-byte redundancies.
	n := single.Len()
	if !bytes.Equal(single.Bytes()[11:13], []byte{2, 0}) || single.Bytes()[14] != 1 || !bytes.Equal(single.Bytes()[n-5:n-3], []byte{0, 0}) {
		t.Fatalf("the single-group stream is not laid out as the table cases assume: %x", single.Bytes())
	}
	patch := func(offsetValue ...int) []byte {
		out := bytes.Clone(single.Bytes())
		for i := 0; i < len(offsetValue); i += 2 {
			out[offsetValue[i]] = byte(offsetValue[i+1])
		}
		return out
	}
	repeatedSRule := slices.Concat(single.Bytes()[:n-4], []byte{2, 0, 1, 0, 1}, single.Bytes()[n-3:])

	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":             {nil, "truncated"},
		"truncated":         {valid[:len(valid)/3], "truncated"},
		"garbage":           {bytes.Repeat([]byte{0xfe, 0x01, 0x77}, 100), "version"},
		"version":           {append([]byte{99}, valid[1:]...), "version"},
		"zero role":         {group(1, 0, 0), "invalid role"},
		"bad role":          {group(1, 0, 4), "invalid role"},
		"host out of range": {group(binary.AppendUvarint([]byte{1}, numHosts)...), "outside topology"},
		"duplicate host":    {group(2, 5, 1, 5, 2), "hosts out of order"},
		"no encoding":       {group(1, 48, 2, 0), "bad encoding flag"},
		"duplicate group":   {slices.Concat([]byte{stateVersion, 2}, body, body), "groups out of order"},
		// A table that names a switch twice would collapse to one entry
		// and re-serialise to other bytes than were read.
		"repeated tree leaf":   {patch(14, 0), "tree leaf 0 out of order"},
		"descending tree leaf": {patch(12, 1, 14, 0), "tree leaf 0 out of order"},
		"repeated s-rule leaf": {repeatedSRule, "s-rule leaf 0 out of order"},
		"trailing bytes":       {append(bytes.Clone(valid), 0xde, 0xad), "trailing data"},
		// WriteState writes minimal varints; a padded one would read to
		// a state that re-encodes to other bytes.
		"padded version": {append([]byte{stateVersion | 0x80, 0}, valid[1:]...), "non-minimal varint"},
		"padded host":    {group(1, 0x85, 0, 2), "non-minimal varint"},
	}
	for name, tc := range cases {
		c2, _ := New(paperTopo(), cfg)
		err := c2.ReadState(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s input: err %v, want one naming %q", name, err, tc.want)
		}
		// Never half-restored.
		leaves, spines := occSnapshot(c2)
		if c2.NumGroups() != 0 || slices.Max(leaves) != 0 || slices.Max(spines) != 0 {
			t.Fatalf("%s input left %d groups, occupancy %v / %v", name, c2.NumGroups(), leaves, spines)
		}
	}

	// Flipping any single byte must either fail or decode to a
	// different-but-valid stream — never panic. (Spot-check a spread of
	// positions; the durable layer's envelope checksum catches the
	// rest.)
	for off := 0; off < len(valid); off += len(valid)/64 + 1 {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		c2, _ := New(paperTopo(), cfg)
		_ = c2.ReadState(bytes.NewReader(mut)) // must not panic
	}

	// A d-leaf section the header cannot carry, spliced into a one-group
	// stream of the evaluation fabric: its 576 leaves let one rule list
	// more identifiers than a rule's limit of 255. Each re-encodes to the
	// bytes it was read from, so only the reader can refuse it.
	big := topology.MustNew(topology.FacebookFabric())
	bc, _ := New(big, cfg)
	key := GroupKey{Tenant: 1, Group: 1}
	if _, err := bc.CreateGroup(key, map[topology.HostID]Role{0: RoleBoth, 48 * 5: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	var bigState bytes.Buffer
	if err := bc.WriteState(&bigState); err != nil {
		t.Fatal(err)
	}
	e := bc.Group(key).Enc
	leaf := stateWriter{layout: header.LayoutFor(big)}
	leaf.section(e.DLeafSection)
	var tail stateWriter
	writeSRules(&tail, e.SpineSRules, e.PodLeaves)
	writeSRules(&tail, e.LeafSRules, e.LeafPorts)
	for _, r := range []int{e.LeafRedundancy, e.SpineRedundancy, e.Redundancy} {
		tail.uvarint(uint64(r))
	}
	if !bytes.HasSuffix(bigState.Bytes(), slices.Concat(leaf.b, tail.b)) {
		t.Fatalf("the evaluation-fabric stream does not end with its d-leaf section and tail: %x", bigState.Bytes())
	}
	prefix := bigState.Bytes()[:bigState.Len()-len(leaf.b)-len(tail.b)]
	leafSection := func(rules ...[]uint64) []byte {
		out := binary.AppendUvarint(slices.Clone(prefix), uint64(len(rules)))
		for _, ids := range rules {
			out = binary.AppendUvarint(out, uint64(len(ids)))
			for _, id := range ids {
				out = binary.AppendUvarint(out, id)
			}
			out = append(out, make([]byte, bitmap.ByteLen(big.LeafDownWidth()))...)
		}
		return slices.Concat(out, []byte{0}, tail.b)
	}
	oneID := make([][]uint64, header.MaxRulesPerSection+1)
	for i := range oneID {
		oneID[i] = []uint64{uint64(i)}
	}
	manyIDs := make([]uint64, header.MaxSwitchesPerRule+1)
	for i := range manyIDs {
		manyIDs[i] = uint64(i)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"rule without identifiers":      {leafSection([]uint64{}), "no switch identifiers"},
		"256 rules in a section":        {leafSection(oneID...), "exceeds section limit"},
		"256 identifiers in one rule":   {leafSection(manyIDs), "limit 255"},
		"the spliced section unchanged": {leafSection([]uint64{0}, []uint64{5}), ""},
	} {
		c2, _ := New(big, cfg)
		err := c2.ReadState(bytes.NewReader(tc.data))
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want one naming %q", name, err, tc.want)
		}
		if c2.NumGroups() != 0 {
			t.Fatalf("%s: %d groups restored", name, c2.NumGroups())
		}
	}
}

// sruleStream is the state stream of one group whose two receiver
// leaves both hold s-rules (no leaf p-rule budget): host 0 on leaf 0,
// host 9 on port 1 of leaf 1. It ends with the leaf s-rule table —
// leaf 0 with bitmap 0x01, leaf 1 with 0x02 — and three zero
// redundancies.
func sruleStream(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 0
	c, _ := New(paperTopo(), cfg)
	if _, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 1}, map[topology.HostID]Role{0: RoleBoth, 9: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if n := len(b); !bytes.Equal(b[n-8:], []byte{2, 0, 0x01, 1, 0x02, 0, 0, 0}) {
		t.Fatalf("the s-rule stream is not laid out as the cases assume: %x", b)
	}
	return cfg, b
}

// TestReadStateRefusesSRuleOffItsTree: an s-rule's entry holds its
// switch's tree bitmap, so a stream whose s-rule names other ports, or a
// switch off the group's tree, is refused with an error naming the
// switch, and leaves the controller empty.
func TestReadStateRefusesSRuleOffItsTree(t *testing.T) {
	cfg, valid := sruleStream(t)
	n := len(valid)
	flipped := bytes.Clone(valid)
	flipped[n-4] ^= 0x01 // leaf 1's entry now also covers port 0
	offTree := bytes.Clone(valid)
	offTree[n-5] = 2 // leaf 2 has no receiver
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"flipped bitmap": {flipped, "s-rule leaf 1 holds ports"},
		"off-tree leaf":  {offTree, "s-rule leaf 2 is not on the group's tree"},
	} {
		c, _ := New(paperTopo(), cfg)
		err := c.ReadState(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want one naming %q", name, err, tc.want)
		}
		leaves, spines := occSnapshot(c)
		if c.NumGroups() != 0 || slices.Max(leaves) != 0 || slices.Max(spines) != 0 {
			t.Fatalf("%s left %d groups, occupancy %v / %v", name, c.NumGroups(), leaves, spines)
		}
	}
	c, _ := New(paperTopo(), cfg)
	if err := c.ReadState(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the unmodified stream: %v", err)
	}
	requireOccupancyConserved(t, c)
}

// TestRestoreNeverHalfRestores: a well-formed stream that does not fit
// this controller's s-rule tables (it was written under a larger Fmax)
// is refused whole — no group and no occupancy left behind — and loads
// where it does fit.
func TestRestoreNeverHalfRestores(t *testing.T) {
	roomy := testConfig(0)
	roomy.LeafRuleLimit = 2 // force s-rules into the stream
	roomy.SRuleCapacity = 64
	var buf bytes.Buffer
	if err := buildBusyController(t, roomy).WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	tight := roomy
	tight.SRuleCapacity = 1
	c, _ := New(paperTopo(), tight)
	if err := c.ReadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore succeeded on a fabric it cannot fit")
	}
	leaves, spines := occSnapshot(c)
	if c.NumGroups() != 0 || slices.Max(leaves) != 0 || slices.Max(spines) != 0 {
		t.Fatalf("failed restore left %d groups, occupancy %v / %v", c.NumGroups(), leaves, spines)
	}
	c2, _ := New(paperTopo(), roomy)
	if err := c2.ReadState(&buf); err != nil {
		t.Fatalf("restore where the stream fits: %v", err)
	}
	requireOccupancyConserved(t, c2)
}

// FuzzReadState feeds ReadState what `elmo-ctl load` and a durable
// snapshot file can: arbitrary bytes. It must never panic; a refused
// stream leaves the controller empty; an accepted one leaves occupancy
// equal to what the restored encodings hold and within every switch's
// table, and WriteState of it is the accepted stream, byte for byte.
func FuzzReadState(f *testing.F) {
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2 // force s-rules into the stream
	stream := func(cfg Config) []byte {
		var buf bytes.Buffer
		if err := buildBusyController(f, cfg).WriteState(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := stream(cfg)
	f.Add(valid)
	for _, n := range []int{0, 1, 2, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(bytes.Repeat([]byte{0xfe, 0x01, 0x77}, 100))
	f.Add(append([]byte{99}, valid[1:]...))
	for off := 0; off < len(valid); off += len(valid)/64 + 1 {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// Written under a larger Fmax: well-formed, but it holds more
	// s-rules per switch than this controller's tables.
	roomy := cfg
	roomy.SRuleCapacity = 64
	f.Add(stream(roomy))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, _ := New(paperTopo(), cfg)
		if err := c.ReadState(bytes.NewReader(data)); err != nil {
			leaves, spines := occSnapshot(c)
			if c.NumGroups() != 0 || slices.Max(leaves) != 0 || slices.Max(spines) != 0 {
				t.Fatalf("refused stream (%v) left %d groups, occupancy %v / %v", err, c.NumGroups(), leaves, spines)
			}
			return
		}
		requireOccupancyConserved(t, c)
		leaves, spines := occSnapshot(c)
		if most := max(slices.Max(leaves), slices.Max(spines)); most > c.occ.Capacity() {
			t.Fatalf("a switch holds %d s-rules, capacity %d", most, c.occ.Capacity())
		}
		var out bytes.Buffer
		if err := c.WriteState(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted stream %x re-encodes as %x", data, out.Bytes())
		}
	})
}

func TestReadStateIntoNonEmptyFails(t *testing.T) {
	cfg := testConfig(0)
	c1 := buildBusyController(t, cfg)
	var buf bytes.Buffer
	if err := c1.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	c2, _ := New(paperTopo(), cfg)
	if _, err := c2.CreateGroup(GroupKey{Tenant: 9, Group: 9},
		map[topology.HostID]Role{0: RoleBoth, 9: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	if err := c2.ReadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadState into non-empty controller accepted")
	}
}

// stateFormatGolden is the SHA-256 of the WriteState stream of the
// controller TestStateFormatGolden builds, recorded at the commit before
// the codec's map writers and readers were folded into one generic pair.
const stateFormatGolden = "93d0c673b3f6a1f8fb8e188c572a96c2142e6ba5c7e533c9f9c69ca3cbade3c1"

// TestStateFormatGolden pins the on-disk state format byte for byte: a
// snapshot written by an older build must still load, so a codec rewrite
// may not move a byte. The stream covers every encoding field: the busy
// controller's mixed groups, then groups with a receiver under every
// leaf, of which the first spills most of its leaves and pods onto
// s-rules and the last, finding those tables full, falls to the default
// rule at both layers.
func TestStateFormatGolden(t *testing.T) {
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2
	cfg.SpineRuleLimit = 1
	cfg.SRuleCapacity = 12
	c := buildBusyController(t, cfg)
	topo := c.Topology()
	wide := map[topology.HostID]Role{0: RoleSender}
	for l := 0; l < topo.NumLeaves(); l++ {
		wide[topo.HostAt(topology.LeafID(l), 1+l%3)] = RoleReceiver
	}
	var first, last *Encoding
	for i := uint32(0); i < 32 && (last == nil || last.UsesSRules()); i++ {
		g, err := c.CreateGroup(GroupKey{Tenant: 9, Group: i}, wide)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = g.Enc
		}
		last = g.Enc
	}
	if len(first.LeafSRules) < 4 || len(first.SpineSRules) < 2 {
		t.Fatalf("s-rule-heavy group took %d leaf and %d spine s-rules", len(first.LeafSRules), len(first.SpineSRules))
	}
	if last.UsesSRules() || !last.DLeafDefault || !last.DSpineDefault {
		t.Fatalf("default-rule group: s-rules=%t leaf default=%t spine default=%t",
			last.UsesSRules(), last.DLeafDefault, last.DSpineDefault)
	}
	if got := c.Fingerprint(); got != stateFormatGolden {
		t.Fatalf("state stream hash %s, want %s", got, stateFormatGolden)
	}
}
