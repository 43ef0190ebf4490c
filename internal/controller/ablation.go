package controller

import (
	"math/bits"

	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file quantifies the paper's §3.1 design decisions D1–D3 on a
// concrete group, reproducing the running example's header-size
// narrative (161 bits per-switch → 83 bits on the logical topology →
// 62 bits with bitmap sharing). The models follow the paper's
// accounting: identifiers cost ceil(log2(#switches of the tier)) bits
// and bitmaps cost one bit per port; byte alignment and section
// framing are ignored, as in the paper's arithmetic.

// AblationSizes reports header bits for one (group, sender) pair under
// successive design stages.
type AblationSizes struct {
	// D1Bits: one rule per physical switch on the multicast tree, each
	// carrying its identifier and its full port bitmap (upstream +
	// downstream ports for leaf/spine tiers).
	D1Bits int
	// D2Bits: encoding on the logical topology — bitmap-only upstream
	// rules with a multipath flag, one rule per logical spine (pod)
	// and per leaf, a single logical-core bitmap, sender-specific
	// trimming.
	D2Bits int
	// D3Bits: D2 plus bitmap sharing across switches (the configured
	// R/KMax), i.e. the encoding Elmo actually emits.
	D3Bits int
}

// Ablation computes the stage sizes for a receiver set and sender.
func Ablation(topo *topology.Topology, cfg Config, receivers []topology.HostID, sender topology.HostID) (AblationSizes, error) {
	var out AblationSizes
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), receivers)
	if err != nil {
		return out, err
	}

	// --- D1: per-physical-switch rules. ---
	tcfg := topo.Config()
	leafID := bitlen(topo.NumLeaves())
	spineID := bitlen(topo.NumSpines())
	coreID := bitlen(topo.NumCores())
	leafPorts := tcfg.HostsPerLeaf + tcfg.SpinesPerPod
	spinePorts := tcfg.LeavesPerPod + tcfg.CoresPerPlane
	corePorts := tcfg.Pods
	// Every member leaf, every physical spine of every member pod, and
	// every core can appear on some sender's tree; D1 encodes them all.
	out.D1Bits = len(enc.LeafPorts)*(leafID+leafPorts) +
		len(enc.PodLeaves)*tcfg.SpinesPerPod*(spineID+spinePorts) +
		topo.NumCores()*(coreID+corePorts)

	// --- D2: logical topology, no sharing. ---
	// Sender-specific upstream rules (bitmap + multipath flag, no IDs).
	senderLeaf := topo.HostLeaf(sender)
	senderPod := topo.LeafPod(senderLeaf)
	d2 := (tcfg.HostsPerLeaf + tcfg.SpinesPerPod + 1) + // u-leaf
		(tcfg.LeavesPerPod + tcfg.CoresPerPlane + 1) // u-spine
	d2 += tcfg.Pods // logical core bitmap
	podBits := bitlen(tcfg.Pods)
	for pod := range enc.PodLeaves {
		if pod == senderPod {
			continue // served by the u-spine rule
		}
		d2 += podBits + tcfg.LeavesPerPod
	}
	for leaf := range enc.LeafPorts {
		if leaf == senderLeaf && len(enc.LeafPorts) == 1 {
			continue
		}
		d2 += leafID + tcfg.HostsPerLeaf
	}
	out.D2Bits = d2

	// --- D3: the real encoding (sharing per cfg), same bit accounting. ---
	h, err := SenderHeader(topo, cfg, enc, sender, nil)
	if err != nil {
		return out, err
	}
	d3 := 0
	if h.ULeaf != nil {
		d3 += tcfg.HostsPerLeaf + tcfg.SpinesPerPod + 1
	}
	if h.USpine != nil {
		d3 += tcfg.LeavesPerPod + tcfg.CoresPerPlane + 1
	}
	if h.Core != nil {
		d3 += tcfg.Pods
	}
	for _, r := range h.DSpine {
		d3 += len(r.Switches)*podBits + tcfg.LeavesPerPod
	}
	if h.DSpineDefault != nil {
		d3 += tcfg.LeavesPerPod
	}
	for _, r := range h.DLeaf {
		d3 += len(r.Switches)*leafID + tcfg.HostsPerLeaf
	}
	if h.DLeafDefault != nil {
		d3 += tcfg.HostsPerLeaf
	}
	out.D3Bits = d3
	return out, nil
}

func bitlen(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// NoPopBytes models disabling D2d (popping): every link transmission
// carries the full source header. Compare with Delivery.LinkBytes to
// quantify what per-hop popping saves.
func NoPopBytes(links, innerLen, sourceStreamLen int) int {
	return links * (header.OuterSize + innerLen + sourceStreamLen)
}
