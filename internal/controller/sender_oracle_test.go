package controller

import (
	"fmt"
	"slices"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file is the frozen oracle of §3.1's sender specialisation: the
// pointer-rich header assembly AppendSenderStream replaced, kept word
// for word so the equivalence test can hold the stream-first
// implementation to it byte for byte and error for error. It reads the
// tree maps an encoding held before the tree moved to the group's
// members, built beside the encoding by withTreeMaps.

// oracleEncoding is an encoding with its receivers' tree maps.
type oracleEncoding struct {
	*Encoding
	// Pods is the bitmap of pods containing receivers.
	Pods bitmap.Bitmap
	// LeafPorts maps each receiver leaf to its member host ports.
	LeafPorts map[topology.LeafID]bitmap.Bitmap
	// PodLeaves maps each receiver pod to its member leaf bitmap.
	PodLeaves map[topology.PodID]bitmap.Bitmap
}

// withTreeMaps returns e with the tree maps of the given receivers, in
// any order, built one bitmap per tree switch as the encoder once did.
func withTreeMaps(topo *topology.Topology, e *Encoding, receivers []topology.HostID) *oracleEncoding {
	o := &oracleEncoding{
		Encoding:  e,
		Pods:      bitmap.New(topo.CoreDownWidth()),
		LeafPorts: make(map[topology.LeafID]bitmap.Bitmap),
		PodLeaves: make(map[topology.PodID]bitmap.Bitmap),
	}
	for _, h := range receivers {
		leaf := topo.HostLeaf(h)
		pod := topo.LeafPod(leaf)
		if _, ok := o.LeafPorts[leaf]; !ok {
			o.LeafPorts[leaf] = bitmap.New(topo.LeafDownWidth())
		}
		o.LeafPorts[leaf].Set(topo.HostPort(h))
		if _, ok := o.PodLeaves[pod]; !ok {
			o.PodLeaves[pod] = bitmap.New(topo.SpineDownWidth())
		}
		o.PodLeaves[pod].Set(topo.LeafIndexInPod(leaf))
		o.Pods.Set(int(pod))
	}
	return o
}

// oracleSenderHeader assembles the Elmo header a hypervisor pushes for
// packets the given sender host emits into the group encoded by e.
//
// The downstream sections are shared across senders (D2c); this
// function specializes only the sender-dependent parts: the upstream
// leaf and spine rules, the core pod bitmap (excluding the sender's own
// pod, which is served on the way up), and the removal of downstream
// rules that exclusively name the sender's own leaf or pod.
//
// When failures is non-nil and affects the group's reachable paths,
// multipathing is disabled and explicit upstream ports are chosen by
// greedy set cover (§3.3); ErrNoPath is returned when no cover exists.
func oracleSenderHeader(topo *topology.Topology, cfg Config, e *oracleEncoding, sender topology.HostID, failures *topology.FailureSet) (*header.Header, error) {
	l := header.LayoutFor(topo)
	senderLeaf := topo.HostLeaf(sender)
	senderPod := topo.LeafPod(senderLeaf)

	for _, lg := range cfg.LegacyLeaves {
		if lg == senderLeaf {
			return nil, ErrLegacyPath
		}
	}

	h := &header.Header{}
	shared, err := encodingRules(l, e.Encoding)
	if err != nil {
		return nil, err
	}

	// Receivers under the sender's own leaf, minus the sender itself:
	// the hypervisor delivers any co-located member VM locally.
	uDown := bitmap.New(l.LeafDown)
	if lp, ok := e.LeafPorts[senderLeaf]; ok {
		uDown = lp.Clone()
		if uDown.Test(topo.HostPort(sender)) {
			uDown.Clear(topo.HostPort(sender))
		}
	}

	// Does the tree extend beyond the rack / beyond the pod?
	beyondRack := false
	for leaf := range e.LeafPorts {
		if leaf != senderLeaf {
			beyondRack = true
			break
		}
	}
	beyondPod := false
	for pod := range e.PodLeaves {
		if pod != senderPod {
			beyondPod = true
			break
		}
	}

	if uDown.IsEmpty() && !beyondRack {
		// Nothing to deliver outside the sender's own hypervisor.
		return h, nil
	}

	uleaf := &header.UpstreamRule{Down: uDown, Up: bitmap.New(l.LeafUp)}
	h.ULeaf = uleaf
	if !beyondRack {
		return h, nil
	}

	// Beyond the rack the packet must transit the sender pod's spines;
	// legacy spines cannot interpret the u-spine rule.
	for _, lg := range cfg.LegacyPods {
		if lg == senderPod {
			return nil, ErrLegacyPath
		}
	}

	// The packet must ascend. Build the u-spine rule: deliveries to
	// other member leaves of the sender's pod happen on the way up.
	uspine := &header.UpstreamRule{Down: bitmap.New(l.SpineDown), Up: bitmap.New(l.SpineUp)}
	if pl, ok := e.PodLeaves[senderPod]; ok {
		uspine.Down = pl.Clone()
		if uspine.Down.Test(topo.LeafIndexInPod(senderLeaf)) {
			uspine.Down.Clear(topo.LeafIndexInPod(senderLeaf))
		}
	}
	h.USpine = uspine

	if beyondPod {
		core := e.Pods.Clone()
		if core.Test(int(senderPod)) {
			core.Clear(int(senderPod))
		}
		h.Core = &core

		h.DSpine = filterRules(shared.DSpine, uint16(senderPod))
		h.DSpineDefault = shared.DSpineDefault
	}

	h.DLeaf = filterRules(shared.DLeaf, uint16(senderLeaf))
	h.DLeafDefault = shared.DLeafDefault

	// Upstream port selection: multipath when the fabric is healthy,
	// explicit set-cover ports under failures.
	if failures.Empty() || !groupAffected(topo, e.Pods, senderPod, failures) {
		uleaf.Multipath = true
		uspine.Multipath = beyondPod
	} else {
		planes, corePorts, err := coverUpstream(topo, e.Pods, senderPod, beyondPod, failures)
		if err != nil {
			return nil, err
		}
		for _, p := range planes {
			uleaf.Up.Set(p)
		}
		for _, j := range corePorts {
			uspine.Up.Set(j)
		}
	}

	h.INTEnabled = cfg.EnableINT

	if size := header.EncodedSize(l, h); size > cfg.MaxHeaderBytes {
		return nil, fmt.Errorf("controller: assembled header %d bytes exceeds budget %d", size, cfg.MaxHeaderBytes)
	}
	return h, nil
}

// encodingRules reads the downstream sections of e back as rules
// through header.Decode.
func encodingRules(l header.Layout, e *Encoding) (*header.Header, error) {
	h, _, err := header.Decode(l, slices.Concat(e.DSpineSection, e.DLeafSection, []byte{header.TagEnd}))
	return h, err
}

// filterRules drops rules that exclusively name the sender's own
// switch: the downstream path never revisits it, so carrying the rule
// only wastes header bytes.
func filterRules(rules []header.PRule, own uint16) []header.PRule {
	out := make([]header.PRule, 0, len(rules))
	for _, r := range rules {
		if len(r.Switches) == 1 && r.Switches[0] == own {
			continue
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
