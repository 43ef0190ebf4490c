package fabric

import (
	"testing"

	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/obs"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// TestNextHopMatchesTopology walks every (switch, port, direction) of
// the paper's example and of an asymmetric fabric and checks that
// NextHop names the device internal/topology wires to that port, that
// every up-link has its down-link twin, and that the produced links
// plus the host uplinks hit every index of obs.LinkTable exactly once.
func TestNextHopMatchesTopology(t *testing.T) {
	for _, cfg := range []topology.Config{
		topology.PaperExample(),
		{Pods: 3, SpinesPerPod: 2, LeavesPerPod: 5, HostsPerLeaf: 3, CoresPerPlane: 4},
	} {
		topo := topology.MustNew(cfg)
		f := New(topo, 0)
		plane := obs.New(obs.Options{Topology: topo})
		plane.Enable()
		seen := make(map[dataplane.Link]bool)
		check := func(l dataplane.Link, wantTier dataplane.LinkTier, want int) {
			t.Helper()
			if l.ToTier != wantTier || int(l.To) != want {
				t.Fatalf("%+v: got %s %d, want %s %d", cfg, l.ToTier, l.To, wantTier, want)
			}
			if seen[l] {
				t.Fatalf("%+v: link %+v produced twice", cfg, l)
			}
			seen[l] = true
			plane.ObserveLink(l, 1)
		}
		hop := func(tier dataplane.LinkTier, id, port int, up bool) dataplane.Link {
			return f.NextHop(tier, int32(id), &dataplane.Emission{Port: port, Up: up})
		}
		for h := 0; h < topo.NumHosts(); h++ {
			check(f.uplink(topology.HostID(h)), dataplane.LinkLeaf, int(topo.HostLeaf(topology.HostID(h))))
		}
		for l := 0; l < topo.NumLeaves(); l++ {
			for p := 0; p < cfg.HostsPerLeaf; p++ {
				check(hop(dataplane.LinkLeaf, l, p, false), dataplane.LinkHost, int(topo.HostAt(topology.LeafID(l), p)))
			}
			for p := 0; p < cfg.SpinesPerPod; p++ {
				check(hop(dataplane.LinkLeaf, l, p, true), dataplane.LinkSpine, int(topo.LeafUpstream(topology.LeafID(l), p)))
			}
		}
		for s := 0; s < topo.NumSpines(); s++ {
			for p := 0; p < cfg.LeavesPerPod; p++ {
				check(hop(dataplane.LinkSpine, s, p, false), dataplane.LinkLeaf, int(topo.SpineDownstream(topology.SpineID(s), p)))
			}
			for p := 0; p < cfg.CoresPerPlane; p++ {
				check(hop(dataplane.LinkSpine, s, p, true), dataplane.LinkCore, int(topo.SpineUpstream(topology.SpineID(s), p)))
			}
		}
		for c := 0; c < topo.NumCores(); c++ {
			for p := 0; p < cfg.Pods; p++ {
				// Core ports are pods and lead down whatever Up says.
				check(hop(dataplane.LinkCore, c, p, c%2 == 0), dataplane.LinkSpine, int(topo.CoreDownstream(topology.CoreID(c), topology.PodID(p))))
			}
		}
		for l := range seen {
			if rev := (dataplane.Link{FromTier: l.ToTier, From: l.To, ToTier: l.FromTier, To: l.From}); !seen[rev] {
				t.Fatalf("%+v: link %+v has no reverse", cfg, l)
			}
		}
		lt := plane.Links()
		if len(seen) != lt.NumLinks() {
			t.Fatalf("%+v: %d links produced, table has %d", cfg, len(seen), lt.NumLinks())
		}
		rates := lt.TopN(lt.NumLinks(), 0)
		if len(rates) != lt.NumLinks() {
			t.Fatalf("%+v: %d of %d table indexes hit", cfg, len(rates), lt.NumLinks())
		}
		for _, r := range rates {
			if r.Packets != 1 {
				t.Fatalf("%+v: table index %d hit %d times, want 1", cfg, r.ID, r.Packets)
			}
		}
	}
}

// TestLinkTierMatchesTraceTier pins the three tier enumerations to one
// numbering: the probe converts a LinkTier to a trace.Tier, and a
// switch stamps its LinkTier as the INT record tier, by plain casts.
func TestLinkTierMatchesTraceTier(t *testing.T) {
	for lt, tt := range map[dataplane.LinkTier]trace.Tier{
		dataplane.LinkHost: trace.TierHost, dataplane.LinkLeaf: trace.TierLeaf,
		dataplane.LinkSpine: trace.TierSpine, dataplane.LinkCore: trace.TierCore,
	} {
		if trace.Tier(lt) != tt {
			t.Fatalf("LinkTier %s = %d, trace tier = %d", lt, lt, tt)
		}
	}
	for lt, it := range map[dataplane.LinkTier]uint8{
		dataplane.LinkLeaf: header.INTTierLeaf, dataplane.LinkSpine: header.INTTierSpine,
		dataplane.LinkCore: header.INTTierCore,
	} {
		if uint8(lt) != it {
			t.Fatalf("LinkTier %s = %d, INT tier = %d", lt, lt, it)
		}
	}
}
