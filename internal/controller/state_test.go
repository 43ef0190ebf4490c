package controller

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
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

	// Hand-built streams: one group whose member list or choices are
	// malformed, and one valid group written twice.
	numHosts := uint64(paperTopo().NumHosts())
	group := func(body ...byte) []byte { return append([]byte{stateVersion, 1, 1, 1}, body...) }
	single := groupStream(t, cfg, map[topology.HostID]Role{0: RoleBoth, 9: RoleReceiver}, nil)
	// Key (1, 1); host 0 and host 9 with their roles; the spine
	// layer, one rule naming pod 0 and no s-rule; the leaf layer, rules
	// naming leaf 0 and leaf 1 and no s-rule.
	if !bytes.Equal(single, []byte{stateVersion, 1, 1, 1, 2, 0, 3, 9, 2, 1, 1, 0, 0, 2, 1, 0, 1, 1, 0}) {
		t.Fatalf("the single-group stream is not laid out as the cases assume: %x", single)
	}
	body := single[2:]                                                           // after version and group count
	leafLayer := func(b ...byte) []byte { return slices.Concat(single[:13], b) } // single, its leaf layer replaced by b
	// Streams this controller's encoder could not have written under the
	// reader's config: the busy state, whose largest group has 6 leaf
	// p-rules; a group whose leaf 5 takes a p-rule; rules over KMaxLeaf
	// and over R.
	most := 0
	for _, key := range c1.GroupKeys() {
		most = max(most, header.RuleCount(c1.Group(key).Enc.DLeafSection))
	}
	if most != 6 {
		t.Fatalf("the busy state's largest group has %d leaf p-rules, want 6", most)
	}
	tight, small, legacy := cfg, cfg, cfg
	tight.LeafRuleLimit = 1
	small.MaxHeaderBytes = 25 // the smallest budget New accepts here: no leaf p-rule fits
	legacy.LegacyLeaves = []topology.LeafID{5}

	cases := map[string]struct {
		data   []byte
		reader *Config // cfg when nil
		want   string
	}{
		"empty":                      {nil, nil, "truncated"},
		"truncated":                  {valid[:len(valid)/3], nil, "truncated"},
		"garbage":                    {bytes.Repeat([]byte{0xfe, 0x01, 0x77}, 100), nil, "version"},
		"version":                    {append([]byte{99}, valid[1:]...), nil, "version"},
		"zero role":                  {group(1, 0, 0), nil, "invalid role"},
		"bad role":                   {group(1, 0, 4), nil, "invalid role"},
		"host out of range":          {group(binary.AppendUvarint([]byte{1}, numHosts)...), nil, "outside topology"},
		"duplicate host":             {group(2, 5, 1, 5, 2), nil, "hosts out of order"},
		"group without its encoding": {group(1, 48, 2), nil, "truncated"},
		"duplicate group":            {slices.Concat([]byte{stateVersion, 2}, body, body), nil, "groups out of order"},
		// A list that names a switch twice would collapse to one entry.
		"leaf named twice in a rule": {leafLayer(1, 2, 0, 0, 0), nil, "p-rule leaf 0 is not on the group's tree, or is named by an earlier rule"},
		"descending s-rule leaves":   {leafLayer(0, 2, 1, 0), nil, "s-rule leaf 0 out of order"},
		"repeated s-rule leaf":       {leafLayer(0, 2, 0, 0), nil, "s-rule leaf 0 out of order"},
		"trailing bytes":             {append(bytes.Clone(valid), 0xde, 0xad), nil, "trailing data"},
		// WriteState writes minimal varints; a padded one would read to
		// a state that re-encodes to other bytes.
		"padded version": {append([]byte{stateVersion | 0x80, 0}, valid[1:]...), nil, "non-minimal varint"},
		"padded host":    {group(1, 0x85, 0, 2), nil, "non-minimal varint"},
		"leaf in a p-rule and an s-rule": {editedGroupStream(t, func(e *Encoding) { e.LeafSRules = []topology.LeafID{5} }), nil,
			"p-rule leaf 5 is not on the group's tree, or is named by an earlier rule"},
		// Encodings the reader's config forbids.
		"6 leaf rules under LeafRuleLimit 1":   {valid, &tight, "leaf p-rules exceed the limit of 1"},
		"leaf p-rules under MaxHeaderBytes 25": {valid, &small, "2 leaf p-rules exceed the limit of 0"},
		"legacy leaf 5 on a p-rule":            {editedGroupStream(t, nil), &legacy, "legacy leaf 5 is on the tree without an s-rule"},
		"rule over KMaxLeaf":                   {kmaxStream(t), nil, "leaf p-rule 0 lists 4 switches, KMax 2"},
		"shared rule over R":                   {editedGroupStream(t, oneSharedLeafRule(t)), nil, "leaf p-rule 0 has redundancy 1, R 0"},
	}
	for name, tc := range cases {
		reader := cfg
		if tc.reader != nil {
			reader = *tc.reader
		}
		c2, _ := New(paperTopo(), reader)
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

	// The same group with its leaf rules rewritten as the encoder wrote
	// them, with leaf 5 left to the default rule, and as one rule shared
	// by both leaves, whose redundancy — the port it sends to leaf 5
	// beyond host 40's — a reader at R=1 allows.
	for name, tc := range map[string]struct {
		edit func(e *Encoding)
		r    int
	}{
		"leaf rules as encoded": {func(e *Encoding) { setLeafRules(t, e, nil, leafRule([]int{0}, 5), leafRule([]int{0, 1}, 0)) }, 0},
		"leaf 5 on the default": {leafFiveOnDefault(t), 0},
		"one shared leaf rule":  {oneSharedLeafRule(t), 1},
	} {
		c2, _ := New(paperTopo(), testConfig(tc.r))
		if err := c2.ReadState(bytes.NewReader(editedGroupStream(t, tc.edit))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// A stream holds no derived field, so an encoding whose bitmaps,
	// default rule or redundancy are not the ones its choices derive
	// writes the same bytes as the one they derive: no stream can carry
	// the inconsistency. (An encoding holds no tree to get wrong.)
	for name, tc := range map[string]struct{ edit, same func(e *Encoding) }{
		"redundancy not the sum": {func(e *Encoding) { e.SpineRedundancy = 7 }, nil},
		"non-member port in both leaf rules": {func(e *Encoding) {
			setLeafRules(t, e, nil, leafRule([]int{0, 2}, 5), leafRule([]int{0, 1, 2}, 0))
		}, nil},
		"default with every leaf covered": {func(e *Encoding) {
			setLeafRules(t, e, leafPorts(0), leafRule([]int{0}, 5), leafRule([]int{0, 1}, 0))
		}, nil},
		"default with an extra port": {func(e *Encoding) {
			setLeafRules(t, e, leafPorts(0, 3), leafRule([]int{0, 1}, 0))
		}, leafFiveOnDefault(t)},
	} {
		if !bytes.Equal(editedGroupStream(t, tc.edit), editedGroupStream(t, tc.same)) {
			t.Fatalf("%s: the stream carries a derived field", name)
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
	leaf.rules(e.DLeafSection)
	writeIDs(&leaf, e.LeafSRules)
	if !bytes.HasSuffix(bigState.Bytes(), leaf.b) || len(e.LeafSRules) != 0 {
		t.Fatalf("the evaluation-fabric stream does not end with its d-leaf rules and no s-rule: %x", bigState.Bytes())
	}
	prefix := bigState.Bytes()[:bigState.Len()-len(leaf.b)]
	leafSection := func(rules ...[]uint64) []byte {
		out := binary.AppendUvarint(slices.Clone(prefix), uint64(len(rules)))
		for _, ids := range rules {
			out = binary.AppendUvarint(out, uint64(len(ids)))
			for _, id := range ids {
				out = binary.AppendUvarint(out, id)
			}
		}
		return append(out, 0) // no s-rule
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
		"256 rules in a section":        {leafSection(oneID...), "p-rule count 256 exceeds bound 255"},
		"256 identifiers in one rule":   {leafSection(manyIDs), "rule-switch count 256 exceeds bound 255"},
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

// groupStream is the state stream of one group, key (1, 1), with the
// given members, created under cfg, with its encoding edited (when edit
// is not nil) before it is written.
func groupStream(tb testing.TB, cfg Config, members map[topology.HostID]Role, edit func(e *Encoding)) []byte {
	tb.Helper()
	c, _ := New(paperTopo(), cfg)
	key := GroupKey{Tenant: 1, Group: 1}
	if _, err := c.CreateGroup(key, members); err != nil {
		tb.Fatal(err)
	}
	if edit != nil {
		edit(c.groups[key].Enc)
	}
	var b bytes.Buffer
	if err := c.WriteState(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// editedGroupStream is the state stream of the group {0: both, 1:
// receiver, 40: receiver} — leaf 0 in pod 0, leaf 5 in pod 2; d-leaf
// rules [5]{port 0} and [0]{ports 0, 1} — with its encoding edited before
// it is written.
func editedGroupStream(tb testing.TB, edit func(e *Encoding)) []byte {
	return groupStream(tb, testConfig(0), map[topology.HostID]Role{0: RoleBoth, 1: RoleReceiver, 40: RoleReceiver}, edit)
}

// kmaxStream is the state stream of the group {0: both, 8, 16, 24:
// receiver} — port 0 of leaves 0 to 3 — with one d-leaf rule naming all
// four leaves, two more than KMaxLeaf.
func kmaxStream(tb testing.TB) []byte {
	return groupStream(tb, testConfig(0), map[topology.HostID]Role{0: RoleBoth, 8: RoleReceiver, 16: RoleReceiver, 24: RoleReceiver},
		func(e *Encoding) { setLeafRules(tb, e, nil, leafRule([]int{0}, 0, 1, 2, 3)) })
}

// oneSharedLeafRule rewrites the edited group's d-leaf section as one
// rule naming both leaves: redundancy 1, the port it sends to leaf 5
// beyond host 40's.
func oneSharedLeafRule(tb testing.TB) func(e *Encoding) {
	return func(e *Encoding) {
		setLeafRules(tb, e, nil, leafRule([]int{0, 1}, 0, 5))
		e.LeafRedundancy = 1
	}
}

// leafFiveOnDefault rewrites the edited group's d-leaf section as the
// rule for leaf 0 and a default rule for leaf 5.
func leafFiveOnDefault(tb testing.TB) func(e *Encoding) {
	return func(e *Encoding) { setLeafRules(tb, e, leafPorts(0), leafRule([]int{0, 1}, 0)) }
}

// leafPorts is a port bitmap of one leaf of paperTopo.
func leafPorts(ports ...int) *bitmap.Bitmap {
	b := bitmap.FromPorts(paperTopo().LeafDownWidth(), ports...)
	return &b
}

// leafRule is a d-leaf p-rule of paperTopo: the given ports, on leaves.
func leafRule(ports []int, leaves ...uint16) header.PRule {
	return header.PRule{Switches: leaves, Bitmap: *leafPorts(ports...)}
}

// setLeafRules rewrites e's d-leaf section from rules and def.
func setLeafRules(tb testing.TB, e *Encoding, def *bitmap.Bitmap, rules ...header.PRule) {
	tb.Helper()
	sec, err := header.AppendDownstream(nil, header.LayoutFor(paperTopo()), header.TagDLeaf, rules, def, header.KeepAll)
	if err != nil {
		tb.Fatal(err)
	}
	e.DLeafSection, e.DLeafDefault = sec, def != nil
}

// sruleStream is the state stream of one group whose two receiver
// leaves both hold s-rules (no leaf p-rule budget): host 0 on leaf 0,
// host 9 on port 1 of leaf 1. It ends with its leaf layer: no p-rule,
// then the s-rules on leaves 0 and 1.
func sruleStream(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 0
	b := groupStream(t, cfg, map[topology.HostID]Role{0: RoleBoth, 9: RoleReceiver}, nil)
	if n := len(b); !bytes.Equal(b[n-4:], []byte{0, 2, 0, 1}) {
		t.Fatalf("the s-rule stream is not laid out as the cases assume: %x", b)
	}
	return cfg, b
}

// TestReadStateRefusesSRuleOffItsTree: an s-rule's entry holds its
// switch's tree bitmap, so a stream whose s-rule names a switch off the
// group's tree is refused with an error naming the switch, and leaves
// the controller empty.
func TestReadStateRefusesSRuleOffItsTree(t *testing.T) {
	cfg, valid := sruleStream(t)
	offTree := bytes.Clone(valid)
	offTree[len(offTree)-1] = 2 // leaf 2 has no receiver
	c, _ := New(paperTopo(), cfg)
	err := c.ReadState(bytes.NewReader(offTree))
	if want := "s-rule leaf 2 is not on the group's tree"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err %v, want one naming %q", err, want)
	}
	leaves, spines := occSnapshot(c)
	if c.NumGroups() != 0 || slices.Max(leaves) != 0 || slices.Max(spines) != 0 {
		t.Fatalf("the off-tree s-rule left %d groups, occupancy %v / %v", c.NumGroups(), leaves, spines)
	}
	c, _ = New(paperTopo(), cfg)
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
// snapshot file can: arbitrary bytes, read under two configs, the second
// stricter (a legacy leaf 5, one leaf p-rule). It must never panic; a
// refused stream leaves the controller empty; an accepted one leaves
// occupancy equal to what the restored encodings hold and within every
// switch's table, and WriteState of it is the accepted stream, byte for
// byte; every sender of every accepted group gets a header (one behind
// a legacy leaf excepted), as the layers' limits imply the byte budget;
// and what the stricter config accepts, the other accepts too.
func FuzzReadState(f *testing.F) {
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2 // force s-rules into the stream
	strict := cfg
	strict.LegacyLeaves = []topology.LeafID{5}
	strict.LeafRuleLimit = 1
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
	// Encodings the readers' configs forbid: 6 leaf p-rules in one group,
	// a p-rule on leaf 5 (refused by the stricter reader), a rule over
	// KMaxLeaf and a shared rule over R.
	f.Add(stream(testConfig(0)))
	f.Add(editedGroupStream(f, nil))
	f.Add(kmaxStream(f))
	f.Add(editedGroupStream(f, oneSharedLeafRule(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := false
		for _, cfg := range []Config{strict, cfg} {
			c, _ := New(paperTopo(), cfg)
			if err := c.ReadState(bytes.NewReader(data)); err != nil {
				if accepted {
					t.Fatalf("accepted under the stricter config, refused under %+v: %v", cfg, err)
				}
				leaves, spines := occSnapshot(c)
				if c.NumGroups() != 0 || slices.Max(leaves) != 0 || slices.Max(spines) != 0 {
					t.Fatalf("refused stream (%v) left %d groups, occupancy %v / %v", err, c.NumGroups(), leaves, spines)
				}
				continue
			}
			accepted = true
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
			for _, key := range c.GroupKeys() {
				for _, m := range c.Group(key).Members {
					if _, err := c.SenderStream(key, m.Host); m.Role.CanSend() && err != nil && !errors.Is(err, ErrLegacyPath) {
						t.Fatalf("accepted group %v: sender %d: %v", key, m.Host, err)
					}
				}
			}
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
// controller TestStateFormatGolden builds, in format version 2.
const stateFormatGolden = "94079b71955b553deead1156c621c3549e5b384edd80f0eba2f4f1375845e5ef"

// stateFormatV1Golden is what stateFormatGolden was in format version 1,
// which also stored the tree, every bitmap, the default flags and the
// redundancies: the SHA-256 of testdata/state-v1.bin.
const stateFormatV1Golden = "93d0c673b3f6a1f8fb8e188c572a96c2142e6ba5c7e533c9f9c69ca3cbade3c1"

// TestStateFormatGolden pins the on-disk state format byte for byte. A
// snapshot of another format version is refused by its version byte
// (TestStateV1Refused), so a change to the format bumps stateVersion,
// and a codec rewrite that keeps the version may not move a byte. The
// stream covers every encoding field: the busy controller's mixed
// groups, then groups with a receiver under every leaf, of which the
// first spills most of its leaves and pods onto s-rules and the last,
// finding those tables full, falls to the default rule at both layers.
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

// TestStateV1Refused: the version-1 stream of TestStateFormatGolden's
// controller, checked in as written, is refused by its version byte.
func TestStateV1Refused(t *testing.T) {
	v1, err := os.ReadFile("testdata/state-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintOf(v1); got != stateFormatV1Golden {
		t.Fatalf("testdata/state-v1.bin hash %s, want %s", got, stateFormatV1Golden)
	}
	c, _ := New(paperTopo(), testConfig(0))
	if err := c.ReadState(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("err %v, want a refusal of version 1", err)
	}
	if c.NumGroups() != 0 {
		t.Fatalf("a refused stream left %d groups", c.NumGroups())
	}
}
