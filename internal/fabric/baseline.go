package fabric

import (
	"fmt"

	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file implements the comparison baselines of the evaluation:
// host-based unicast replication, overlay multicast (one relay per
// leaf), and the ideal-multicast byte count every traffic-overhead
// ratio is normalized against (§5.1.2 and the Figure 4/5 dashed lines).

// SendUnicast models the unicast fallback tenants use without native
// multicast: the sender's hypervisor encapsulates one plain VXLAN copy
// per receiver. It returns the aggregate delivery (routing each copy
// deterministically through the fabric) — LinkBytes is the unicast
// traffic cost; the sender-side copy count is len(receivers), the CPU
// quantity Figure 6 tracks.
func (f *Fabric) SendUnicast(sender topology.HostID, receivers []topology.HostID, inner []byte) (*Delivery, error) {
	agg := &Delivery{Received: make(map[topology.HostID][]byte)}
	for _, r := range receivers {
		if r == sender {
			continue
		}
		d, err := f.routeUnicast(sender, r, inner)
		if err != nil {
			return nil, err
		}
		mergeDelivery(agg, d)
	}
	return agg, nil
}

// SendOverlay models overlay multicast (§5.1.2 footnote): the sender
// unicasts one copy to a relay host under each participating leaf, and
// each relay unicasts to the other member hosts under its leaf. The
// relays' sends model the end-host replication CPU cost overlays pay.
func (f *Fabric) SendOverlay(sender topology.HostID, receivers []topology.HostID, inner []byte) (*Delivery, int, error) {
	agg := &Delivery{Received: make(map[topology.HostID][]byte)}
	byLeaf := make(map[topology.LeafID][]topology.HostID)
	for _, r := range receivers {
		if r == sender {
			continue
		}
		l := f.topo.HostLeaf(r)
		byLeaf[l] = append(byLeaf[l], r)
	}
	relaySends := 0
	senderLeaf := f.topo.HostLeaf(sender)
	for leaf, members := range byLeaf {
		relay := members[0]
		if leaf == senderLeaf {
			// The sender itself relays to rack-local members.
			for _, m := range members {
				d, err := f.routeUnicast(sender, m, inner)
				if err != nil {
					return nil, 0, err
				}
				mergeDelivery(agg, d)
			}
			continue
		}
		d, err := f.routeUnicast(sender, relay, inner)
		if err != nil {
			return nil, 0, err
		}
		mergeDelivery(agg, d)
		for _, m := range members[1:] {
			relaySends++
			dr, err := f.routeUnicast(relay, m, inner)
			if err != nil {
				return nil, 0, err
			}
			mergeDelivery(agg, dr)
		}
	}
	return agg, relaySends, nil
}

// routeUnicast walks one plain-VXLAN copy from src to dst along the
// deterministic ECMP path, accounting bytes per link. Each crossing is
// reported to the probe's observe-only half — the per-link timeseries
// sees baseline traffic on the same links the Elmo path uses, but a
// baseline copy is never faulted.
func (f *Fabric) routeUnicast(src, dst topology.HostID, inner []byte) (*Delivery, error) {
	d := &Delivery{Received: make(map[topology.HostID][]byte)}
	outer := header.OuterFields{
		SrcMAC:  header.HostMAC(src),
		DstMAC:  header.HostMAC(dst),
		SrcIP:   header.HostIP(f.topo, src),
		DstIP:   header.HostIP(f.topo, dst),
		SrcPort: uint16(49152 + (uint32(src)*31+uint32(dst))%16384),
		TTL:     64,
	}
	pkt := dataplane.Packet{Outer: outer, Inner: inner}
	size := pkt.WireSize()
	var buf [6]dataplane.Link
	hops, ok := f.unicastHops(buf[:0], outer, src, dst)
	for _, l := range hops {
		d.LinkBytes += size
		if l.ToTier != dataplane.LinkHost {
			d.Hops++
		}
		f.probe.Observe(l, size)
	}
	if ok {
		d.Received[dst] = inner
	} else {
		d.Lost++
	}
	return d, nil
}

// pickPlane chooses a spine plane healthy in both the source and
// destination pods.
func (f *Fabric) pickPlane(outer header.OuterFields, srcPod, dstPod topology.PodID) (int, bool) {
	cfg := f.topo.Config()
	alive := make([]int, 0, cfg.SpinesPerPod)
	for p := 0; p < cfg.SpinesPerPod; p++ {
		if f.failures.SpineFailed(f.topo.SpineAt(srcPod, p)) {
			continue
		}
		if srcPod != dstPod {
			if f.failures.SpineFailed(f.topo.SpineAt(dstPod, p)) {
				continue
			}
			if len(f.failures.HealthyCoresInPlane(f.topo, p)) == 0 {
				continue
			}
		}
		alive = append(alive, p)
	}
	if len(alive) == 0 {
		return 0, false
	}
	return alive[dataplane.ECMPHash(outer, 0x75)%uint32(len(alive))], true
}

func (f *Fabric) pickCore(outer header.OuterFields, plane int) (topology.CoreID, bool) {
	cores := f.failures.HealthyCoresInPlane(f.topo, plane)
	if len(cores) == 0 {
		return 0, false
	}
	return cores[dataplane.ECMPHash(outer, 0xc0)%uint32(len(cores))], true
}

func mergeDelivery(agg, d *Delivery) {
	for h, inner := range d.Received {
		if _, dup := agg.Received[h]; dup {
			agg.Duplicates++
		}
		agg.Received[h] = inner
	}
	agg.Spurious += d.Spurious
	agg.LinkBytes += d.LinkBytes
	agg.Hops += d.Hops
	agg.Lost += d.Lost
}

// IdealBytes returns the bytes ideal native multicast would move for
// one packet from sender to the receivers: one copy per tree link,
// with no source-routing header. This is the denominator of every
// traffic-overhead ratio in Figures 4 and 5.
func IdealBytes(topo *topology.Topology, sender topology.HostID, receivers []topology.HostID, innerLen int) int {
	size := header.OuterSize + innerLen
	links := idealLinks(topo, sender, receivers)
	return size * links
}

// idealLinks counts the links of the minimal multicast tree.
func idealLinks(topo *topology.Topology, sender topology.HostID, receivers []topology.HostID) int {
	senderLeaf := topo.HostLeaf(sender)
	senderPod := topo.LeafPod(senderLeaf)
	leaves := make(map[topology.LeafID]bool)
	pods := make(map[topology.PodID]bool)
	hosts := 0
	for _, r := range receivers {
		if r == sender {
			continue
		}
		hosts++
		l := topo.HostLeaf(r)
		leaves[l] = true
		pods[topo.LeafPod(l)] = true
	}
	if hosts == 0 {
		return 0
	}
	links := 1 + hosts // sender NIC + receiver NICs
	beyondRack := len(leaves) > 1 || !leaves[senderLeaf]
	if beyondRack {
		links++ // sender leaf -> spine
		for l := range leaves {
			if l != senderLeaf {
				links++ // spine -> leaf (in its pod)
			}
		}
		beyondPod := len(pods) > 1 || !pods[senderPod]
		if beyondPod {
			links++ // spine -> core
			for p := range pods {
				if p != senderPod {
					links++ // core -> pod spine
				}
			}
		}
	}
	return links
}

// String summarizes a delivery for logs and examples.
func (d *Delivery) String() string {
	return fmt.Sprintf("delivered=%d spurious=%d dup=%d lost=%d bytes=%d hops=%d",
		len(d.Received), d.Spurious, d.Duplicates, d.Lost, d.LinkBytes, d.Hops)
}
