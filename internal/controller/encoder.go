// Package controller implements Elmo's logically-centralized
// controller (paper §2, §3): it tracks multicast group membership,
// computes each group's multicast tree over the Clos topology, encodes
// the tree as shared downstream p-rules plus per-switch s-rules
// (delegating the per-layer packing to package cluster), assembles the
// per-sender packet headers that hypervisor switches push onto
// packets, and reacts to membership churn and network failures with
// minimal switch updates.
package controller

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"elmo/internal/bitmap"
	"elmo/internal/cluster"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// Config bounds the encodings the controller produces.
type Config struct {
	// MaxHeaderBytes caps the assembled per-sender header (paper
	// evaluation: 325 bytes; the RMT parser ceiling is 512).
	MaxHeaderBytes int
	// SpineRuleLimit is HMax for the downstream spine section (paper: 2).
	SpineRuleLimit int
	// LeafRuleLimit is HMax for the downstream leaf section (paper:
	// 30). The effective limit also honors MaxHeaderBytes given
	// KMaxLeaf (see effectiveLeafLimit).
	LeafRuleLimit int
	// KMaxSpine / KMaxLeaf bound switches per shared p-rule.
	KMaxSpine, KMaxLeaf int
	// R is the redundancy limit for p-rule sharing (§3.2).
	R int
	// SRuleCapacity is Fmax: the group-table entries available per
	// physical switch. Zero disables s-rules entirely.
	SRuleCapacity int

	// LegacyLeaves and LegacyPods mark switches that have not migrated
	// to Elmo (§7, path to deployment): they ignore p-rules and
	// forward Elmo packets from their group tables alone, so every
	// group with tree presence there MUST take an s-rule — their
	// group-table size remains the scalability bottleneck, exactly as
	// the paper observes for incremental deployments. A pod is legacy
	// when any of its spines is. Senders whose own leaf or (for
	// cross-pod groups) own pod is legacy cannot source-route and fall
	// back to unicast (ErrLegacyPath).
	LegacyLeaves []topology.LeafID
	LegacyPods   []topology.PodID

	// EnableINT adds an in-band telemetry section to every sender
	// header, so switches record the replication path inside the
	// packet (§7 Monitoring). Costs 2 bytes at the sender plus 4 bytes
	// per hop in flight.
	EnableINT bool
}

// PaperConfig mirrors the evaluation's defaults at a given R.
func PaperConfig(r int) Config {
	return Config{
		MaxHeaderBytes: header.PaperHeaderBudget,
		SpineRuleLimit: 2,
		LeafRuleLimit:  30,
		KMaxSpine:      2,
		KMaxLeaf:       2,
		R:              r,
		SRuleCapacity:  10000,
	}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.MaxHeaderBytes <= 0 {
		return fmt.Errorf("controller: MaxHeaderBytes must be positive")
	}
	if c.SpineRuleLimit < 0 || c.LeafRuleLimit < 0 {
		return fmt.Errorf("controller: rule limits must be non-negative")
	}
	if c.KMaxSpine < 1 || c.KMaxLeaf < 1 {
		return fmt.Errorf("controller: KMax must be at least 1")
	}
	if c.R < 0 {
		return fmt.Errorf("controller: R must be non-negative")
	}
	if c.SRuleCapacity < 0 {
		return fmt.Errorf("controller: SRuleCapacity must be non-negative")
	}
	return nil
}

// Encoding is the sender-independent representation of one group's
// multicast tree: the shared downstream rules (D2c) plus the s-rule
// installations. It holds no tree: the group's ascending members are
// the tree (Tree.Read). Per-sender header streams are written
// from the encoding and its tree by AppendSenderStream.
type Encoding struct {
	// DSpineSection and DLeafSection are the shared downstream sections
	// — spine p-rules over pod IDs, leaf p-rules over global leaf IDs —
	// as the bytes header.AppendDownstream writes for them with
	// header.KeepAll: the rules and the optional default rule, nil when a
	// layer has neither. A sender's header copies them
	// (header.CopyDownstream). DSpineDefault and DLeafDefault report
	// whether the section ends in a default rule.
	DSpineSection []byte
	DLeafSection  []byte
	DSpineDefault bool
	DLeafDefault  bool

	// SpineSRules lists, ascending, the pods whose logical spine takes a
	// group-table entry. The entry holds the pod's tree bitmap (Tree.Pod)
	// in every physical spine SRuleSpines names.
	SpineSRules []topology.PodID
	// LeafSRules lists, ascending, the leaves taking a group-table
	// entry. The entry holds the leaf's tree bitmap (Tree.Leaf).
	LeafSRules []topology.LeafID

	// LeafRedundancy / SpineRedundancy are the spurious transmissions
	// each layer's p-rule sharing and default rule introduce: kept per
	// layer, so the incremental churn path can recombine a fresh leaf
	// layer with a reused spine section.
	LeafRedundancy  int
	SpineRedundancy int
}

// Redundancy is the total spurious transmissions across both layers.
func (e *Encoding) Redundancy() int { return e.LeafRedundancy + e.SpineRedundancy }

// Exact reports whether the encoding needs no default p-rule at either
// layer — the "groups covered with p-rules (and s-rules)" metric of
// Figures 4/5 (left).
func (e *Encoding) Exact() bool { return !e.DSpineDefault && !e.DLeafDefault }

// UsesSRules reports whether any s-rule was installed.
func (e *Encoding) UsesSRules() bool { return len(e.SpineSRules) > 0 || len(e.LeafSRules) > 0 }

// CapacityFunc reports whether a physical leaf, or every physical
// spine of a pod, still has group-table space. Implementations are
// provided by the Controller (stateful) and by the simulation harness
// (streaming counters).
type CapacityFunc struct {
	Leaf func(topology.LeafID) bool
	Pod  func(topology.PodID) bool
}

// NoCapacity is a CapacityFunc with no s-rule space anywhere.
func NoCapacity() CapacityFunc {
	return CapacityFunc{
		Leaf: func(topology.LeafID) bool { return false },
		Pod:  func(topology.PodID) bool { return false },
	}
}

// EncodeScratch owns the reusable working memory of one encoder: the
// clustering scratch, the member slice and s-rule switches of the layer
// being encoded, a Join/Leave's receiver list, and the tree being
// encoded. One scratch serves one goroutine; the batch pipeline gives
// each worker its own and the controller keeps one for the serial
// Join/Leave/Create paths. The zero value is ready to use.
type EncodeScratch struct {
	cluster   cluster.Scratch
	members   []cluster.Member
	srules    []uint16
	receivers []topology.HostID
	// rules and section hold the layer being written: its p-rules, as
	// header rules aliasing the clustering result, and their bytes;
	// deriveLayer ORs its default rule into def, and marks in named the
	// tree switches it has seen named.
	rules   []header.PRule
	section []byte
	def     bitmap.Bitmap
	named   []bool
	tree    Tree
}

// Tree is a group's multicast tree: its receiver leaves and pods,
// ascending, each with its downstream bitmap (a leaf's receiver ports, a
// pod's receiver leaves by index in the pod), all carved from one slab.
// An Encoding holds none: the encoder builds one in its scratch, and a
// walk over a group's senders or s-rules reads one from the members
// (Read). The zero value is ready to use; a rebuild reuses its memory.
type Tree struct {
	receivers       []topology.HostID
	leaves          []topology.LeafID
	pods            []topology.PodID
	leafBms, podBms []bitmap.Bitmap
	slab            []uint64
}

// Read builds t from a group's ascending members: the tree of those
// that receive.
func (t *Tree) Read(topo *topology.Topology, members []Member) {
	t.receivers = appendHosts(slices.Grow(t.receivers[:0], len(members)), members, Role.CanReceive)
	t.build(topo, t.receivers)
}

// build builds t from ascending receiver hosts in one pass: hosts are
// numbered leaf-major and leaves pod-major, so their leaves and pods come
// in ascending runs, each carved a bitmap as it starts.
func (t *Tree) build(topo *topology.Topology, receivers []topology.HostID) {
	leafWidth, podWidth := topo.LeafDownWidth(), topo.SpineDownWidth()
	nl, np := min(len(receivers), topo.NumLeaves()), min(len(receivers), topo.NumPods())
	t.leaves, t.leafBms = slices.Grow(t.leaves[:0], nl), slices.Grow(t.leafBms[:0], nl)
	t.pods, t.podBms = slices.Grow(t.pods[:0], np), slices.Grow(t.podBms[:0], np)
	t.slab = slices.Grow(t.slab[:0], nl*bitmap.WordLen(leafWidth)+np*bitmap.WordLen(podWidth))
	slab := t.slab[:cap(t.slab)]
	var bm bitmap.Bitmap
	for _, h := range receivers {
		if leaf := topo.HostLeaf(h); len(t.leaves) == 0 || t.leaves[len(t.leaves)-1] != leaf {
			if pod := topo.LeafPod(leaf); len(t.pods) == 0 || t.pods[len(t.pods)-1] != pod {
				bm, slab = bitmap.Carve(podWidth, slab)
				t.pods, t.podBms = append(t.pods, pod), append(t.podBms, bm)
			}
			t.podBms[len(t.podBms)-1].Set(topo.LeafIndexInPod(leaf))
			bm, slab = bitmap.Carve(leafWidth, slab)
			t.leaves, t.leafBms = append(t.leaves, leaf), append(t.leafBms, bm)
		}
		t.leafBms[len(t.leafBms)-1].Set(topo.HostPort(h))
	}
}

// Leaf returns leaf's tree bitmap, what its s-rule entry holds, and
// whether leaf is on t. The bitmap aliases t.
func (t *Tree) Leaf(leaf topology.LeafID) (bitmap.Bitmap, bool) {
	return treeBitmap(t.leaves, t.leafBms, leaf)
}

// Pod returns pod's tree bitmap, what its spines' s-rule entries hold,
// and whether pod is on t. The bitmap aliases t.
func (t *Tree) Pod(pod topology.PodID) (bitmap.Bitmap, bool) {
	return treeBitmap(t.pods, t.podBms, pod)
}

// treeBitmap returns the bitmap of switch sw of a tree layer listing
// switches ascending with bitmaps bms, and whether sw is on it.
func treeBitmap[K ~int](switches []K, bms []bitmap.Bitmap, sw K) (bitmap.Bitmap, bool) {
	if i, on := slices.BinarySearch(switches, sw); on {
		return bms[i], true
	}
	return bitmap.Bitmap{}, false
}

// TreeEncoding is an encoding with its leaf tree beside it, for callers
// that hold receivers as bare hosts; no controller path holds one.
type TreeEncoding struct {
	*Encoding
	LeafPorts map[topology.LeafID]bitmap.Bitmap // each receiver leaf's receiver ports
}

// ComputeEncoding builds the sender-independent encoding for the given
// receiver hosts, in any order, with its leaf tree. It is deterministic
// and does not mutate any state: capacity checks go through cap, and the
// caller is responsible for committing the returned s-rule
// installations. An empty receiver set yields an empty encoding.
func ComputeEncoding(topo *topology.Topology, cfg Config, cap CapacityFunc, receivers []topology.HostID) (*TreeEncoding, error) {
	var s EncodeScratch
	receivers = slices.Clone(receivers)
	slices.Sort(receivers)
	e, err := ComputeEncodingInto(topo, cfg, cap, receivers, &s)
	if err != nil {
		return nil, err
	}
	t := &TreeEncoding{Encoding: e, LeafPorts: make(map[topology.LeafID]bitmap.Bitmap, len(s.tree.leaves))}
	for i, leaf := range s.tree.leaves { // the scratch is this call's, so its bitmaps are the result's
		t.LeafPorts[leaf] = s.tree.leafBms[i]
	}
	return t, nil
}

// ComputeEncodingInto is ComputeEncoding of ascending receivers, with
// caller-provided scratch memory and no tree in the result: the tree and
// all clustering temporaries are reused across calls, so a warm scratch
// allocates only the returned Encoding itself — the struct, then per
// layer its section bytes and any s-rule list. The result owns all of
// its memory (nothing aliases the scratch).
func ComputeEncodingInto(topo *topology.Topology, cfg Config, cap CapacityFunc, receivers []topology.HostID, s *EncodeScratch) (*Encoding, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !slices.IsSorted(receivers) {
		return nil, fmt.Errorf("controller: receivers not in ascending host order")
	}
	s.tree.build(topo, receivers)
	e := &Encoding{}
	if len(receivers) == 0 {
		return e, nil
	}
	if err := encodeLeafLayer(topo, cfg, cap, e, s); err != nil {
		return nil, err
	}
	if err := encodeSpineLayer(topo, cfg, cap, e, s); err != nil {
		return nil, err
	}
	return e, nil
}

// hostBlock returns the members, of an ascending list, whose hosts lie in
// block i of size hosts: leaf i's for a leaf's hosts, pod i's for
// podHosts. Hosts are numbered leaf-major and leaves pod-major, so a
// leaf's or a pod's members are one run of the list.
func hostBlock(members []Member, i, size int) []Member {
	lo, _ := slices.BinarySearchFunc(members, topology.HostID(i*size), byHost)
	hi, _ := slices.BinarySearchFunc(members[lo:], topology.HostID((i+1)*size), byHost)
	return members[lo : lo+hi]
}

// podHosts is the number of hosts in a pod.
func podHosts(topo *topology.Topology) int { return topo.SpineDownWidth() * topo.LeafDownWidth() }

// encodeLeafLayer runs Algorithm 1 over the leaf layer of s's tree,
// filling DLeafSection, DLeafDefault, LeafSRules, and LeafRedundancy. Leaves
// reachable entirely through the sender's own u-leaf rule still need
// downstream rules because any member may send; the encoding is shared
// across senders (D2c).
func encodeLeafLayer(topo *topology.Topology, cfg Config, cap CapacityFunc, e *Encoding, s *EncodeScratch) (err error) {
	e.DLeafSection, e.DLeafDefault, e.LeafSRules, e.LeafRedundancy, err = encodeLayer(
		"leaf", header.TagDLeaf, header.LayoutFor(topo), s.tree.leaves, s.tree.leafBms, cfg.LegacyLeaves, cap.Leaf, s,
		cluster.Constraints{R: cfg.R, HMax: effectiveLeafLimit(topo, cfg), KMax: cfg.KMaxLeaf})
	return err
}

// encodeSpineLayer runs Algorithm 1 over the spine layer (one member
// per pod with receivers), filling DSpineSection, DSpineDefault,
// SpineSRules, and SpineRedundancy.
func encodeSpineLayer(topo *topology.Topology, cfg Config, cap CapacityFunc, e *Encoding, s *EncodeScratch) (err error) {
	e.DSpineSection, e.DSpineDefault, e.SpineSRules, e.SpineRedundancy, err = encodeLayer(
		"pod", header.TagDSpine, header.LayoutFor(topo), s.tree.pods, s.tree.podBms, cfg.LegacyPods, cap.Pod, s,
		cluster.Constraints{R: cfg.R, HMax: cfg.SpineRuleLimit, KMax: cfg.KMaxSpine})
	return err
}

// encodeLayer runs Algorithm 1 over one layer of a tree: tree lists the
// layer's switches (leaves, or pods' logical spines) and bms their
// downstream ports, free answers the s-rule capacity question for a
// switch and lim carries the layer's R, HMax and KMax. Legacy switches
// can only forward from their group tables, so they are forced onto
// s-rules and only the modern ones are clustered. It returns the layer's
// section (tag, under layout l) with whether it holds a default rule,
// the s-rule switches (ascending; each entry holds the switch's tree
// bitmap) and the redundancy, all owning their memory.
func encodeLayer[K ~int](layer string, tag byte, l header.Layout, tree []K, bms []bitmap.Bitmap, legacy []K, free func(K) bool,
	s *EncodeScratch, lim cluster.Constraints,
) (section []byte, hasDef bool, srules []K, redundancy int, err error) {
	s.members, s.srules = s.members[:0], s.srules[:0]
	for i, sw := range tree {
		if !slices.Contains(legacy, sw) {
			s.members = append(s.members, cluster.Member{Switch: uint16(sw), Ports: bms[i]})
			continue
		}
		if free == nil || !free(sw) {
			return nil, false, nil, 0, fmt.Errorf("controller: %w (%s %d)", ErrLegacyTableFull, layer, sw)
		}
		s.srules = append(s.srules, uint16(sw))
	}
	lim.HasSRuleCapacity = func(sw uint16) bool { return free != nil && free(K(sw)) }
	assign := assignLayer(s.members, lim, &s.cluster)
	s.rules = s.rules[:0]
	for _, r := range assign.PRules {
		s.rules = append(s.rules, header.PRule(r))
	}
	if section, err = s.writeSection(layer, tag, l, s.rules, assign.Default); err != nil {
		return nil, false, nil, 0, fmt.Errorf("controller: %w", err)
	}
	s.srules = append(s.srules, assign.SRules...)
	return section, assign.Default != nil, switchList[K](s.srules), assign.Redundancy, nil
}

// deriveLayer is encodeLayer given the layer's choices — each p-rule's
// switches and the s-rule switches — on a layer of a tree: its switches
// tree, ascending, and their bitmaps bms.
// As in cluster.AssignInto, a rule's bitmap is the OR of its switches',
// the default rule ORs every switch left unnamed, and the redundancy
// counts the ports sent beyond each switch's own. A switch named twice
// is refused like one off the tree. The rules' bitmaps are overwritten.
func deriveLayer[K ~int](layer string, tag byte, l header.Layout, width int, tree []K, bms []bitmap.Bitmap,
	rules []header.PRule, srules []uint16, s *EncodeScratch,
) (section []byte, hasDef bool, ids []K, redundancy int, err error) {
	s.named = append(s.named[:0], make([]bool, len(tree))...)
	for i := -1; i < len(rules); i++ { // the s-rules, whose OR is dropped, then each p-rule
		kind, sws, bm := "s-rule", srules, &s.def
		if i >= 0 {
			kind, sws, bm = "p-rule", rules[i].Switches, &rules[i].Bitmap
		}
		bm.Reset(width)
		pop := 0
		for _, sw := range sws {
			k, on := slices.BinarySearch(tree, K(sw))
			if !on || s.named[k] {
				return nil, false, nil, 0, fmt.Errorf("%s %s %d is not on the group's tree, or is named by an earlier rule", kind, layer, sw)
			}
			s.named[k] = true
			bm.OrInPlace(bms[k])
			pop += bms[k].PopCount()
		}
		if i >= 0 { // each switch's tree bitmap is a subset of the rule's
			redundancy += len(sws)*bm.PopCount() - pop
		}
	}
	var def *bitmap.Bitmap
	s.def.Reset(width)
	n, pop := 0, 0
	for j := range tree {
		if !s.named[j] {
			def, n, pop = &s.def, n+1, pop+bms[j].PopCount()
			def.OrInPlace(bms[j])
		}
	}
	redundancy += n*s.def.PopCount() - pop
	if section, err = s.writeSection(layer, tag, l, rules, def); err != nil {
		return nil, false, nil, 0, err
	}
	return section, def != nil, switchList[K](srules), redundancy, nil
}

// admissible reports, with an error naming the bound, an encoding that
// breaks what the encoder guarantees under cfg, so one this controller's
// encoder could not have made:
//   - both sections, with the layout's upstream, core and end sections,
//     within MaxHeaderBytes;
//   - at most SpineRuleLimit spine p-rules and effectiveLeafLimit leaf
//     p-rules, each listing at most KMaxSpine or KMaxLeaf switches;
//   - no p-rule whose own redundancy, the sum of its switches' distances
//     to its bitmap (cluster.AssignInto), exceeds R;
//   - every legacy switch on the tree holds an s-rule: it ignores
//     p-rules, so one named by a p-rule or left to the default rule
//     would forward nothing.
//
// t is the group's tree. ReadState holds every restored encoding to it;
// the encoder and the incremental Join/Leave path meet it by
// construction.
func admissible(topo *topology.Topology, cfg Config, e *Encoding, t *Tree) error {
	l := header.LayoutFor(topo)
	size := len(e.DSpineSection) + len(e.DLeafSection) + header.EndSize + header.UpstreamSize(l, header.TagULeaf) +
		header.UpstreamSize(l, header.TagUSpine) + header.CoreSize(l)
	if size > cfg.MaxHeaderBytes {
		return fmt.Errorf("header of %d bytes exceeds MaxHeaderBytes %d", size, cfg.MaxHeaderBytes)
	}
	if err := admissibleLayer("pod", l, e.DSpineSection, t.pods, t.podBms, e.SpineSRules, cfg.LegacyPods,
		e.SpineRedundancy, cfg.SpineRuleLimit, cfg.KMaxSpine, cfg.R); err != nil {
		return err
	}
	if err := admissibleLayer("leaf", l, e.DLeafSection, t.leaves, t.leafBms, e.LeafSRules, cfg.LegacyLeaves,
		e.LeafRedundancy, effectiveLeafLimit(topo, cfg), cfg.KMaxLeaf, cfg.R); err != nil {
		return err
	}
	return nil
}

// admissibleLayer checks one layer's section, under layout l, against
// its rule limit hmax, identifier limit kmax and redundancy limit r,
// and its legacy switches against its s-rules; tree and bms are the
// layer of the group's tree and redundancy is the layer's. A layer whose
// whole redundancy is within r has no rule beyond it.
func admissibleLayer[K ~int](layer string, l header.Layout, section []byte, tree []K, bms []bitmap.Bitmap,
	srules, legacy []K, redundancy, hmax, kmax, r int,
) error {
	if n := header.RuleCount(section); n > hmax {
		return fmt.Errorf("%d %s p-rules exceed the limit of %d", n, layer, hmax)
	}
	var w header.RuleWalker
	w.Reset(l, section)
	for i := 0; w.Next(); i++ {
		if w.N > kmax {
			return fmt.Errorf("%s p-rule %d lists %d switches, KMax %d", layer, i, w.N, kmax)
		}
		if redundancy <= r {
			continue
		}
		spurious := 0
		for _, b := range w.Ports {
			spurious += w.N * bits.OnesCount8(b)
		}
		for j := range w.N {
			bm, _ := treeBitmap(tree, bms, K(w.Switch(j)))
			spurious -= bm.PopCount()
		}
		if spurious > r {
			return fmt.Errorf("%s p-rule %d has redundancy %d, R %d", layer, i, spurious, r)
		}
	}
	if _, _, err := w.End(); err != nil {
		return err
	}
	for _, sw := range legacy {
		if _, on := slices.BinarySearch(tree, sw); on {
			if _, found := slices.BinarySearch(srules, sw); !found {
				return fmt.Errorf("legacy %s %d is on the tree without an s-rule", layer, sw)
			}
		}
	}
	return nil
}

// writeSection writes a layer's rules and default as its section bytes,
// in scratch, and returns them copied out at their exact size (nil for
// an empty section).
func (s *EncodeScratch) writeSection(layer string, tag byte, l header.Layout, rules []header.PRule, def *bitmap.Bitmap) ([]byte, error) {
	var err error
	if s.section, err = header.AppendDownstream(s.section[:0], l, tag, rules, def, header.KeepAll); err != nil {
		return nil, fmt.Errorf("%s section: %w", layer, err)
	}
	if len(s.section) == 0 {
		return nil, nil
	}
	return bytes.Clone(s.section), nil
}

// switchList returns a layer's s-rule switches as a new ascending []K,
// nil when there are none.
func switchList[K ~int](ids []uint16) []K {
	if len(ids) == 0 {
		return nil
	}
	out := make([]K, len(ids))
	for i, sw := range ids {
		out[i] = K(sw)
	}
	slices.Sort(out)
	return out
}

// effectiveLeafLimit derives the leaf-section rule budget from the
// byte budget: the header must fit its floor (headerFloor) and every
// leaf p-rule at KMaxLeaf identifiers.
func effectiveLeafLimit(topo *topology.Topology, cfg Config) int {
	l := header.LayoutFor(topo)
	rule := header.DownstreamSize(l, header.TagDLeaf, 1, cfg.KMaxLeaf, true) - header.DownstreamSize(l, header.TagDLeaf, 0, cfg.KMaxLeaf, true)
	return max(0, min((cfg.MaxHeaderBytes-headerFloor(topo, cfg))/rule, cfg.LeafRuleLimit))
}

// headerFloor is the size of the largest header with no leaf p-rule: the
// upstream and core sections, the worst-case spine section and a lone
// leaf default rule. New refuses a budget below it.
func headerFloor(topo *topology.Topology, cfg Config) int {
	l := header.LayoutFor(topo)
	return header.EndSize + header.UpstreamSize(l, header.TagULeaf) + header.UpstreamSize(l, header.TagUSpine) + header.CoreSize(l) +
		header.DownstreamSize(l, header.TagDSpine, cfg.SpineRuleLimit, cfg.KMaxSpine, true) +
		header.DownstreamSize(l, header.TagDLeaf, 0, cfg.KMaxLeaf, true)
}

// assignLayer runs Algorithm 1, spending the redundancy budget R only
// when the layer needs it: a tree that encodes exactly (no sharing, no
// s-rules, no default) within HMax keeps its exact rules — redundant
// transmissions buy nothing there. Only when the exact encoding
// overflows the header does sharing at the configured R kick in to
// pull switches back off s-rules and default rules (the Figure 4/5
// left-panel effect), which keeps the traffic overhead of raising R
// bounded by the overflow groups instead of taxing every group.
// The returned assignment aliases the scratch (and possibly the input
// member bitmaps) and is valid only until the scratch's next use; the
// encode layer keeps only the section bytes it writes from it.
func assignLayer(members []cluster.Member, c cluster.Constraints, s *cluster.Scratch) cluster.Assignment {
	exactC := c
	exactC.R = 0
	exact := cluster.AssignInto(members, exactC, s)
	if c.R == 0 || (exact.CoveredExactly() && len(exact.SRules) == 0) {
		return exact
	}
	// The exact attempt is discarded, so reusing the scratch (which
	// invalidates it) is safe.
	return cluster.AssignInto(members, c, s)
}
