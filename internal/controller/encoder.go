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

// legacySet builds an O(1) lookup over a legacy switch list.
func legacySet[K comparable](ids []K) map[K]bool {
	if len(ids) == 0 {
		return nil
	}
	m := make(map[K]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
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
// installations. Per-sender header streams are written from it by
// AppendSenderStream.
type Encoding struct {
	// Pods is the bitmap of pods containing receivers.
	Pods bitmap.Bitmap
	// LeafPorts maps each receiver leaf to its member host ports.
	LeafPorts map[topology.LeafID]bitmap.Bitmap
	// PodLeaves maps each receiver pod to its member leaf bitmap.
	PodLeaves map[topology.PodID]bitmap.Bitmap

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
	// group-table entry. The entry holds the pod's tree bitmap,
	// PodLeaves[p], in every physical spine SRuleSpines names.
	SpineSRules []topology.PodID
	// LeafSRules lists, ascending, the leaves taking a group-table
	// entry. The entry holds the leaf's tree bitmap, LeafPorts[l].
	LeafSRules []topology.LeafID

	// Redundancy is the total spurious transmissions introduced by
	// p-rule sharing and default rules across both layers. It is the
	// sum of the per-layer splits below, which the incremental churn
	// path needs to recombine a fresh leaf layer with a reused spine
	// section.
	Redundancy int
	// LeafRedundancy / SpineRedundancy split Redundancy by layer.
	LeafRedundancy  int
	SpineRedundancy int
}

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
// being encoded, a Join/Leave's receiver list, and the tree-building
// marks. One scratch serves one goroutine; the batch pipeline gives each
// worker its own and the controller keeps one for the serial
// Join/Leave/Create paths. The zero value is ready to use.
type EncodeScratch struct {
	cluster   cluster.Scratch
	members   []cluster.Member
	srules    []uint16
	receivers []topology.HostID
	// rules and section hold the layer being written: its p-rules, as
	// header rules aliasing the clustering result, and their bytes.
	rules   []header.PRule
	section []byte

	// stamp names the encoding being built: leafStamp[l] == stamp marks
	// leaf l as seen by it, with its bitmap at leafBms[leafSlot[l]], and
	// likewise for pods. A new stamp forgets every mark at once.
	stamp               uint32
	leafStamp, podStamp []uint32
	leafSlot, podSlot   []int32
	leaves              []topology.LeafID
	pods                []topology.PodID
	leafBms, podBms     []bitmap.Bitmap
}

// nextStamp starts a new encoding's marks over a topology with the
// given leaf and pod counts.
func (s *EncodeScratch) nextStamp(numLeaves, numPods int) {
	s.stamp++
	if s.stamp == 0 || len(s.leafStamp) < numLeaves || len(s.podStamp) < numPods {
		s.leafStamp = make([]uint32, max(numLeaves, len(s.leafStamp)))
		s.podStamp = make([]uint32, max(numPods, len(s.podStamp)))
		s.leafSlot = make([]int32, len(s.leafStamp))
		s.podSlot = make([]int32, len(s.podStamp))
		s.stamp = 1
	}
	s.leaves, s.pods = s.leaves[:0], s.pods[:0]
}

// ComputeEncoding builds the sender-independent encoding for the given
// receiver hosts. It is deterministic and does not mutate any state:
// capacity checks go through cap, and the caller is responsible for
// committing the returned s-rule installations. An empty receiver set
// yields an empty encoding.
func ComputeEncoding(topo *topology.Topology, cfg Config, cap CapacityFunc, receivers []topology.HostID) (*Encoding, error) {
	var s EncodeScratch
	return ComputeEncodingInto(topo, cfg, cap, receivers, &s)
}

// ComputeEncodingInto is ComputeEncoding with caller-provided scratch
// memory: all clustering temporaries are reused across calls, so a warm
// scratch allocates only the returned Encoding itself — the struct, its
// tree maps and one word slab for the tree, then per layer its section
// bytes and any s-rule list. The result owns all of its memory (nothing
// aliases the scratch).
func ComputeEncodingInto(topo *topology.Topology, cfg Config, cap CapacityFunc, receivers []topology.HostID, s *EncodeScratch) (*Encoding, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := buildTree(topo, receivers, nil, s)
	if len(receivers) == 0 {
		return e, nil
	}
	if err := encodeLeafLayer(topo, cfg, cap, e, s); err != nil {
		return nil, err
	}
	if err := encodeSpineLayer(topo, cfg, cap, e, s); err != nil {
		return nil, err
	}
	e.Redundancy = e.LeafRedundancy + e.SpineRedundancy
	return e, nil
}

// buildTree returns an encoding holding only the tree section (Pods,
// LeafPorts, PodLeaves) of the given receivers, in any order. It first
// numbers the receivers' distinct leaves and pods, so the maps are made
// at their final size and every tree bitmap is carved from one word
// slab. A non-nil same is an encoding whose receivers span the same
// leaves: its pod half (Pods, PodLeaves) is taken as it is, and only the
// leaf half is built.
func buildTree(topo *topology.Topology, receivers []topology.HostID, same *Encoding, s *EncodeScratch) *Encoding {
	s.nextStamp(topo.NumLeaves(), topo.NumPods())
	for _, h := range receivers {
		leaf := topo.HostLeaf(h)
		if s.leafStamp[leaf] == s.stamp {
			continue
		}
		s.leafStamp[leaf] = s.stamp
		s.leafSlot[leaf] = int32(len(s.leaves))
		s.leaves = append(s.leaves, leaf)
		pod := topo.LeafPod(leaf)
		if s.podStamp[pod] != s.stamp {
			s.podStamp[pod] = s.stamp
			s.podSlot[pod] = int32(len(s.pods))
			s.pods = append(s.pods, pod)
		}
	}

	leafWidth, podWidth := topo.LeafDownWidth(), topo.SpineDownWidth()
	words := len(s.leaves) * bitmap.WordLen(leafWidth)
	if same == nil {
		words += bitmap.WordLen(topo.CoreDownWidth()) + len(s.pods)*bitmap.WordLen(podWidth)
	}
	slab := make([]uint64, words)
	e := &Encoding{LeafPorts: make(map[topology.LeafID]bitmap.Bitmap, len(s.leaves))}
	s.leafBms = slices.Grow(s.leafBms[:0], len(s.leaves))[:len(s.leaves)]
	for i := range s.leafBms {
		s.leafBms[i], slab = bitmap.Carve(leafWidth, slab)
	}
	for _, h := range receivers {
		s.leafBms[s.leafSlot[topo.HostLeaf(h)]].Set(topo.HostPort(h))
	}
	for i, leaf := range s.leaves {
		e.LeafPorts[leaf] = s.leafBms[i]
	}
	if same != nil {
		e.Pods, e.PodLeaves = same.Pods, same.PodLeaves
		return e
	}

	e.Pods, slab = bitmap.Carve(topo.CoreDownWidth(), slab)
	e.PodLeaves = make(map[topology.PodID]bitmap.Bitmap, len(s.pods))
	s.podBms = slices.Grow(s.podBms[:0], len(s.pods))[:len(s.pods)]
	for i := range s.podBms {
		s.podBms[i], slab = bitmap.Carve(podWidth, slab)
	}
	for _, leaf := range s.leaves {
		s.podBms[s.podSlot[topo.LeafPod(leaf)]].Set(topo.LeafIndexInPod(leaf))
	}
	for i, pod := range s.pods {
		e.Pods.Set(int(pod))
		e.PodLeaves[pod] = s.podBms[i]
	}
	return e
}

// encodeLeafLayer runs Algorithm 1 over the leaf layer of e's tree,
// filling DLeafSection, DLeafDefault, LeafSRules, and LeafRedundancy. Leaves
// reachable entirely through the sender's own u-leaf rule still need
// downstream rules because any member may send; the encoding is shared
// across senders (D2c).
func encodeLeafLayer(topo *topology.Topology, cfg Config, cap CapacityFunc, e *Encoding, s *EncodeScratch) (err error) {
	e.DLeafSection, e.DLeafDefault, e.LeafSRules, e.LeafRedundancy, err = encodeLayer(
		"leaf", header.TagDLeaf, header.LayoutFor(topo), e.LeafPorts, cfg.LegacyLeaves, cap.Leaf, s,
		cluster.Constraints{R: cfg.R, HMax: effectiveLeafLimit(topo, cfg), KMax: cfg.KMaxLeaf})
	return err
}

// encodeSpineLayer runs Algorithm 1 over the spine layer (one member
// per pod with receivers), filling DSpineSection, DSpineDefault,
// SpineSRules, and SpineRedundancy.
func encodeSpineLayer(topo *topology.Topology, cfg Config, cap CapacityFunc, e *Encoding, s *EncodeScratch) (err error) {
	e.DSpineSection, e.DSpineDefault, e.SpineSRules, e.SpineRedundancy, err = encodeLayer(
		"pod", header.TagDSpine, header.LayoutFor(topo), e.PodLeaves, cfg.LegacyPods, cap.Pod, s,
		cluster.Constraints{R: cfg.R, HMax: cfg.SpineRuleLimit, KMax: cfg.KMaxSpine})
	return err
}

// encodeLayer runs Algorithm 1 over one layer of a tree: tree maps each
// switch of the layer (a leaf, or a pod's logical spine) to its
// downstream ports, free answers the s-rule capacity question for it and
// lim carries the layer's R, HMax and KMax. Legacy switches can only
// forward from their group tables, so they are forced onto s-rules and
// only the modern ones are clustered. It returns the layer's section
// (tag, under layout l) with whether it holds a default rule, the s-rule
// switches (ascending; each entry holds the switch's tree bitmap) and
// the redundancy, all owning their memory.
func encodeLayer[K ~int](layer string, tag byte, l header.Layout, tree map[K]bitmap.Bitmap, legacy []K, free func(K) bool,
	s *EncodeScratch, lim cluster.Constraints,
) (section []byte, hasDef bool, srules []K, redundancy int, err error) {
	isLegacy := legacySet(legacy)
	s.members, s.srules = s.members[:0], s.srules[:0]
	for sw, ports := range tree {
		if !isLegacy[sw] {
			s.members = append(s.members, cluster.Member{Switch: uint16(sw), Ports: ports})
			continue
		}
		if free == nil || !free(sw) {
			return nil, false, nil, 0, fmt.Errorf("controller: %w (%s %d)", ErrLegacyTableFull, layer, sw)
		}
		s.srules = append(s.srules, uint16(sw))
	}
	lim.HasSRuleCapacity = func(sw uint16) bool { return free != nil && free(K(sw)) }
	assign := assignLayer(s.members, lim, &s.cluster)
	if s.srules = append(s.srules, assign.SRules...); len(s.srules) > 0 {
		srules = make([]K, len(s.srules))
		for i, sw := range s.srules {
			srules[i] = K(sw)
		}
		slices.Sort(srules)
	}
	// The layer keeps its rules as the section bytes only, written in
	// scratch and copied out at their exact size.
	s.rules = s.rules[:0]
	for _, r := range assign.PRules {
		s.rules = append(s.rules, header.PRule(r))
	}
	if s.section, err = header.AppendDownstream(s.section[:0], l, tag, s.rules, assign.Default, header.KeepAll); err != nil {
		return nil, false, nil, 0, fmt.Errorf("controller: %s section: %w", layer, err)
	}
	if len(s.section) > 0 {
		section = bytes.Clone(s.section)
	}
	return section, assign.Default != nil, srules, assign.Redundancy, nil
}

// effectiveLeafLimit derives the leaf-section rule budget from the
// byte budget: the header must fit the upstream sections, the core
// bitmap, the worst-case spine section, and the leaf section with its
// default rule, every leaf p-rule at KMaxLeaf identifiers.
func effectiveLeafLimit(topo *topology.Topology, cfg Config) int {
	l := header.LayoutFor(topo)
	leaf := func(rules int) int {
		return header.DownstreamSize(l, header.TagDLeaf, rules, cfg.KMaxLeaf, true)
	}
	others := header.EndSize + header.UpstreamSize(l, header.TagULeaf) + header.UpstreamSize(l, header.TagUSpine) +
		header.CoreSize(l) + header.DownstreamSize(l, header.TagDSpine, cfg.SpineRuleLimit, cfg.KMaxSpine, true)
	limit := (cfg.MaxHeaderBytes - others - leaf(0)) / (leaf(1) - leaf(0))
	return max(0, min(limit, cfg.LeafRuleLimit))
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
