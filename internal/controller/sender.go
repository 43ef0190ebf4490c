package controller

import (
	"fmt"
	"slices"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// ErrNoPath reports that failures disconnected some receivers from a
// sender through every spine/core combination; the hypervisor should
// degrade to unicast for the group until repair (§3.3).
var ErrNoPath = fmt.Errorf("controller: no healthy upstream path covers all receivers")

// ErrLegacyPath reports that the sender sits behind a legacy (non-Elmo)
// leaf, or in a legacy pod while the group crosses pods, so its packets
// cannot be source-routed; the hypervisor degrades to unicast until the
// rack migrates (§7, path to deployment).
var ErrLegacyPath = fmt.Errorf("controller: sender is behind a legacy switch")

// ErrLegacyTableFull reports that a legacy switch on the group's tree
// has no group-table space left: legacy group tables remain the
// scalability bottleneck of partially migrated fabrics.
var ErrLegacyTableFull = fmt.Errorf("legacy switch group table full")

// SenderScratch is the reusable working memory of AppendSenderStream:
// the sender's own copies of its leaf's and pod's tree bitmaps and of the
// receiver pods, with its own port, leaf or pod cleared, and the two
// upstream-port bitmaps. The zero value is ready to use; one scratch
// serves one goroutine.
type SenderScratch struct {
	leafDown, leafUp   bitmap.Bitmap
	spineDown, spineUp bitmap.Bitmap
	core               bitmap.Bitmap
}

// AppendSenderStream appends to dst the Elmo section stream (through
// TagEnd) a hypervisor pushes onto packets the given sender host emits
// into the group encoded by e, whose tree is t — the bytes the
// controller sends the hypervisor, written straight from the encoding.
// A walk over a group's senders reads t once (Tree.Read). On error dst
// is returned as it came.
//
// The downstream sections are shared across senders (D2c); only the
// sender-dependent parts are specialised: the upstream leaf and spine
// rules, the core pod bitmap (excluding the sender's own pod, which is
// served on the way up), and the removal of downstream rules that
// exclusively name the sender's own leaf or pod.
//
// When failures is non-nil and affects the group's reachable paths,
// multipathing is disabled and explicit upstream ports are chosen by
// greedy set cover (§3.3); ErrNoPath is returned when no cover exists.
// On a healthy fabric, with a warm scratch and room in dst, nothing is
// allocated.
func AppendSenderStream(dst []byte, s *SenderScratch, topo *topology.Topology, cfg Config, e *Encoding, t *Tree, sender topology.HostID, failures *topology.FailureSet) ([]byte, error) {
	l := header.LayoutFor(topo)
	senderLeaf := topo.HostLeaf(sender)
	senderPod := topo.LeafPod(senderLeaf)
	if slices.Contains(cfg.LegacyLeaves, senderLeaf) {
		return dst, ErrLegacyPath
	}

	// Receivers under the sender's own leaf, minus the sender itself:
	// the hypervisor delivers any co-located member VM locally.
	otherLeaves := len(t.leaves)
	if lp, ok := t.Leaf(senderLeaf); ok {
		otherLeaves--
		s.leafDown.CopyFrom(lp)
		s.leafDown.Clear(topo.HostPort(sender))
	} else {
		s.leafDown.Reset(l.LeafDown)
	}
	beyondRack := otherLeaves > 0
	if s.leafDown.IsEmpty() && !beyondRack {
		// Nothing to deliver outside the sender's own hypervisor.
		return append(dst, header.TagEnd), nil
	}
	s.leafUp.Reset(l.LeafUp)
	if !beyondRack {
		out, err := header.AppendUpstream(dst, l, header.TagULeaf, s.leafDown, s.leafUp, false)
		if err != nil {
			return dst, err
		}
		return append(out, header.TagEnd), nil
	}

	// Beyond the rack the packet must transit the sender pod's spines;
	// legacy spines cannot interpret the u-spine rule.
	if slices.Contains(cfg.LegacyPods, senderPod) {
		return dst, ErrLegacyPath
	}

	// The packet must ascend: deliveries to other member leaves of the
	// sender's pod happen on the way up. The core serves the other pods.
	otherPods := len(t.pods)
	if pl, ok := t.Pod(senderPod); ok {
		otherPods--
		s.spineDown.CopyFrom(pl)
		s.spineDown.Clear(topo.LeafIndexInPod(senderLeaf))
	} else {
		s.spineDown.Reset(l.SpineDown)
	}
	beyondPod := otherPods > 0
	s.spineUp.Reset(l.SpineUp)
	s.core.Reset(topo.CoreDownWidth())
	for _, pod := range t.pods {
		if pod != senderPod {
			s.core.Set(int(pod))
		}
	}

	// Upstream port selection: multipath when the fabric is healthy,
	// explicit set-cover ports under failures.
	multipath := failures.Empty() || !groupAffected(topo, s.core, senderPod, failures)
	if !multipath {
		planes, corePorts, err := coverUpstream(topo, s.core, senderPod, beyondPod, failures)
		if err != nil {
			return dst, err
		}
		for _, p := range planes {
			s.leafUp.Set(p)
		}
		for _, j := range corePorts {
			s.spineUp.Set(j)
		}
	}

	out, err := header.AppendUpstream(dst, l, header.TagULeaf, s.leafDown, s.leafUp, multipath)
	if err != nil {
		return dst, err
	}
	out, err = header.AppendUpstream(out, l, header.TagUSpine, s.spineDown, s.spineUp, multipath && beyondPod)
	if err != nil {
		return dst, err
	}
	if beyondPod {
		if out, err = header.AppendCore(out, l, s.core); err != nil {
			return dst, err
		}
		// The downstream path never revisits the sender's own pod or
		// leaf, so a rule naming only that switch is left out.
		if out, err = header.CopyDownstream(out, l, e.DSpineSection, int(senderPod)); err != nil {
			return dst, err
		}
	}
	if out, err = header.CopyDownstream(out, l, e.DLeafSection, int(senderLeaf)); err != nil {
		return dst, err
	}
	if cfg.EnableINT {
		if out, err = header.AppendINTSection(out, nil); err != nil {
			return dst, err
		}
	}
	out = append(out, header.TagEnd)
	if size := len(out) - len(dst); size > cfg.MaxHeaderBytes {
		return dst, fmt.Errorf("controller: assembled header %d bytes exceeds budget %d", size, cfg.MaxHeaderBytes)
	}
	return out, nil
}

// SenderHeader is the decoded view of AppendSenderStream's bytes, for
// callers that inspect a sender's header section by section, with the
// tree read from the group's ascending members.
func SenderHeader(topo *topology.Topology, cfg Config, e *Encoding, members []Member, sender topology.HostID, failures *topology.FailureSet) (*header.Header, error) {
	var s SenderScratch
	var t Tree
	t.Read(topo, members)
	stream, err := AppendSenderStream(nil, &s, topo, cfg, e, &t, sender, failures)
	if err != nil {
		return nil, err
	}
	h, _, err := header.Decode(header.LayoutFor(topo), stream)
	return h, err
}

// groupAffected reports whether any failed switch lies on a path this
// group's packets could take from the sender's pod to its receiver pods,
// of the bitmap pods.
func groupAffected(topo *topology.Topology, pods bitmap.Bitmap, senderPod topology.PodID, f *topology.FailureSet) bool {
	cfg := topo.Config()
	for pod := range topology.PodID(cfg.Pods) {
		if pod != senderPod && !pods.Test(int(pod)) {
			continue
		}
		for plane := 0; plane < cfg.SpinesPerPod; plane++ {
			if f.SpineFailed(topo.SpineAt(pod, plane)) {
				return true
			}
		}
	}
	for c := 0; c < topo.NumCores(); c++ {
		if f.CoreFailed(topology.CoreID(c)) {
			return true
		}
	}
	return false
}

// coverUpstream chooses spine planes (u-leaf upstream ports) and core
// uplink ports (u-spine upstream ports) such that every receiver pod,
// of the bitmap pods, is reachable, greedily covering the most pods per
// plane (the same set-cover approach as PortLand, §3.3).
func coverUpstream(topo *topology.Topology, pods bitmap.Bitmap, senderPod topology.PodID, beyondPod bool, f *topology.FailureSet) (planes, corePorts []int, err error) {
	cfg := topo.Config()
	// Pods (other than the sender's) that must be reached via core.
	need := pods.Clone()
	need.Clear(int(senderPod))

	type planeInfo struct {
		plane    int
		corePort int           // healthy core uplink, -1 if none
		covers   bitmap.Bitmap // the pods of need it reaches
	}
	candidates := make([]planeInfo, 0, cfg.SpinesPerPod)
	for plane := 0; plane < cfg.SpinesPerPod; plane++ {
		if f.SpineFailed(topo.SpineAt(senderPod, plane)) {
			continue
		}
		pi := planeInfo{plane: plane, corePort: -1, covers: bitmap.New(need.Width())}
		for j := 0; j < cfg.CoresPerPlane; j++ {
			if !f.CoreFailed(topology.CoreID(plane*cfg.CoresPerPlane + j)) {
				pi.corePort = j
				break
			}
		}
		if pi.corePort >= 0 {
			need.ForEach(func(pod int) {
				if !f.SpineFailed(topo.SpineAt(topology.PodID(pod), plane)) {
					pi.covers.Set(pod)
				}
			})
		}
		candidates = append(candidates, pi)
	}
	if len(candidates) == 0 {
		return nil, nil, ErrNoPath
	}
	if !beyondPod {
		// Any healthy spine of the sender's pod reaches its leaves.
		return []int{candidates[0].plane}, nil, nil
	}
	uncovered := need
	for !uncovered.IsEmpty() {
		best, bestCover := -1, 0
		for i, pi := range candidates {
			if n := pi.covers.PopCount() - pi.covers.AndNotCount(uncovered); n > bestCover {
				best, bestCover = i, n
			}
		}
		if best == -1 {
			return nil, nil, ErrNoPath
		}
		planes = append(planes, candidates[best].plane)
		if !slices.Contains(corePorts, candidates[best].corePort) {
			corePorts = append(corePorts, candidates[best].corePort)
		}
		uncovered = uncovered.AndNot(candidates[best].covers)
	}
	// If the sender's pod also has receiver leaves, the first chosen
	// plane's spine delivers them; a plane was always chosen because
	// beyondPod implies at least one uncovered pod existed.
	return planes, corePorts, nil
}
