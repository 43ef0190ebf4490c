package fabric

import (
	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file is the fabric's wiring table: which device sits at the far
// end of each switch port. Where a copy goes next is a fact of the
// logical Clos topology, not of how its bytes are carried, so the sync
// forwarder, the wire engine and both of its transports all ask here.
// The link tiers double as device addresses: (LinkHost, h) is a
// hypervisor, (LinkLeaf|LinkSpine|LinkCore, id) a switch.

// NextHop returns the directed link an emission of switch (tier, id)
// crosses. Leaf and spine ports are indexed per direction (em.Up);
// core ports are pod numbers and always lead down.
func (f *Fabric) NextHop(tier dataplane.LinkTier, id int32, em *dataplane.Emission) dataplane.Link {
	l := dataplane.Link{FromTier: tier, From: id}
	switch {
	case tier == dataplane.LinkLeaf && em.Up:
		l.ToTier, l.To = dataplane.LinkSpine, int32(f.topo.LeafUpstream(topology.LeafID(id), em.Port))
	case tier == dataplane.LinkLeaf:
		l.ToTier, l.To = dataplane.LinkHost, int32(f.topo.HostAt(topology.LeafID(id), em.Port))
	case tier == dataplane.LinkSpine && em.Up:
		l.ToTier, l.To = dataplane.LinkCore, int32(f.topo.SpineUpstream(topology.SpineID(id), em.Port))
	case tier == dataplane.LinkSpine:
		l.ToTier, l.To = dataplane.LinkLeaf, int32(f.topo.SpineDownstream(topology.SpineID(id), em.Port))
	default:
		l.ToTier, l.To = dataplane.LinkSpine, int32(f.topo.CoreDownstream(topology.CoreID(id), topology.PodID(em.Port)))
	}
	return l
}

// uplink returns a host's NIC link to its leaf, the first crossing of
// every send.
func (f *Fabric) uplink(h topology.HostID) dataplane.Link {
	return dataplane.Link{
		FromTier: dataplane.LinkHost, From: int32(h),
		ToTier: dataplane.LinkLeaf, To: int32(f.topo.HostLeaf(h)),
	}
}

// unicastHops appends the links a plain unicast copy crosses from src
// to dst on the flow's ECMP path, and reports whether it arrives: when
// the failure set leaves no healthy plane or core, the list ends at the
// switch that had no way up.
func (f *Fabric) unicastHops(hops []dataplane.Link, outer header.OuterFields, src, dst topology.HostID) ([]dataplane.Link, bool) {
	at := dataplane.Link{ToTier: dataplane.LinkHost, To: int32(src)}
	hop := func(tier dataplane.LinkTier, id int32) {
		at = dataplane.Link{FromTier: at.ToTier, From: at.To, ToTier: tier, To: id}
		hops = append(hops, at)
	}
	srcLeaf, dstLeaf := f.topo.HostLeaf(src), f.topo.HostLeaf(dst)
	hop(dataplane.LinkLeaf, int32(srcLeaf))
	if srcLeaf != dstLeaf {
		srcPod, dstPod := f.topo.LeafPod(srcLeaf), f.topo.LeafPod(dstLeaf)
		plane, ok := f.pickPlane(outer, srcPod, dstPod)
		if !ok {
			return hops, false
		}
		hop(dataplane.LinkSpine, int32(f.topo.SpineAt(srcPod, plane)))
		if srcPod != dstPod {
			core, ok := f.pickCore(outer, plane)
			if !ok {
				return hops, false
			}
			hop(dataplane.LinkCore, int32(core))
			hop(dataplane.LinkSpine, int32(f.topo.SpineAt(dstPod, plane)))
		}
		hop(dataplane.LinkLeaf, int32(dstLeaf))
	}
	hop(dataplane.LinkHost, int32(dst))
	return hops, true
}

// switchAt returns the switch at (tier, id); tier must be a switch tier.
func (f *Fabric) switchAt(tier dataplane.LinkTier, id int32) *dataplane.NetworkSwitch {
	switch tier {
	case dataplane.LinkLeaf:
		return f.Leaves[id]
	case dataplane.LinkSpine:
		return f.Spines[id]
	default:
		return f.Cores[id]
	}
}
