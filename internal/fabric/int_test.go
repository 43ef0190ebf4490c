package fabric

import (
	"reflect"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// TestINTEndToEnd validates the §7 Monitoring extension: with INT
// enabled, every delivered copy carries the exact switch path it took,
// and the path is a valid walk of the Clos fabric.
func TestINTEndToEnd(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.EnableINT = true
	ctrl, f := setup(t, topo, cfg)
	key := controller.GroupKey{Tenant: 6, Group: 1}
	hosts := figure3Hosts()
	installGroup(t, ctrl, f, key, hosts)

	sender := topology.HostID(0)
	d, err := f.Send(sender, dataplane.GroupAddr{VNI: 6, Group: 1}, []byte("trace me"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != len(hosts)-1 {
		t.Fatalf("delivery = %s", d)
	}
	if len(d.Telemetry) != len(d.Received) {
		t.Fatalf("telemetry for %d of %d receivers", len(d.Telemetry), len(d.Received))
	}
	for h, path := range d.Telemetry {
		if len(path) < 1 {
			t.Fatalf("host %d: empty path", h)
		}
		// First hop is always the sender's leaf.
		if path[0].Tier != header.INTTierLeaf || path[0].ID != uint16(topo.HostLeaf(sender)) {
			t.Fatalf("host %d: path starts at %+v, want sender leaf", h, path[0])
		}
		// Last hop is the receiver's leaf.
		last := path[len(path)-1]
		if last.Tier != header.INTTierLeaf || last.ID != uint16(topo.HostLeaf(h)) {
			t.Fatalf("host %d: path ends at %+v, want its leaf %d", h, last, topo.HostLeaf(h))
		}
		// Tiers follow leaf (, spine (, core, spine)?, leaf)? order and
		// TTL metadata strictly decreases.
		for i := 1; i < len(path); i++ {
			if path[i].Meta >= path[i-1].Meta {
				t.Fatalf("host %d: TTL metadata not decreasing: %+v", h, path)
			}
		}
		// Cross-pod receivers must show a core hop.
		if topo.HostPod(h) != topo.HostPod(sender) {
			foundCore := false
			for _, rec := range path {
				if rec.Tier == header.INTTierCore {
					foundCore = true
				}
			}
			if !foundCore {
				t.Fatalf("host %d (other pod): no core hop in %+v", h, path)
			}
		}
	}
}

// TestINTDisabledByDefault: without EnableINT no telemetry is carried
// and headers stay smaller.
func TestINTDisabledByDefault(t *testing.T) {
	topo := paperTopo()
	ctrl, f := setup(t, topo, testConfig(0))
	key := controller.GroupKey{Tenant: 6, Group: 2}
	installGroup(t, ctrl, f, key, figure3Hosts())
	d, err := f.Send(0, dataplane.GroupAddr{VNI: 6, Group: 2}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Telemetry != nil {
		t.Fatalf("telemetry present without INT: %v", d.Telemetry)
	}
}

// TestINTTrafficCost: INT grows each in-flight copy by 4 bytes per hop
// — measurable but small against the p-rule savings.
func TestINTTrafficCost(t *testing.T) {
	topo := paperTopo()
	plain, fp := setup(t, topo, testConfig(0))
	intCfg := testConfig(0)
	intCfg.EnableINT = true
	traced, ft := setup(t, topo, intCfg)
	key := controller.GroupKey{Tenant: 6, Group: 3}
	installGroup(t, plain, fp, key, figure3Hosts())
	installGroup(t, traced, ft, key, figure3Hosts())
	dp, err := fp.Send(0, dataplane.GroupAddr{VNI: 6, Group: 3}, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	dt, err := ft.Send(0, dataplane.GroupAddr{VNI: 6, Group: 3}, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if dt.LinkBytes <= dp.LinkBytes {
		t.Fatalf("INT bytes %d should exceed plain %d", dt.LinkBytes, dp.LinkBytes)
	}
	// Each link carries the accumulated section (2 B framing + 4 B per
	// hop so far), so the total cost is O(hops * path length).
	if dt.LinkBytes > dp.LinkBytes+30*dt.Hops+30 {
		t.Fatalf("INT cost implausibly high: %d vs %d over %d hops", dt.LinkBytes, dp.LinkBytes, dt.Hops)
	}
}

// TestINTAfterAbsentDownstreamSection: with no p-rule budget every
// downstream switch is served from its s-rule, so the d-spine and d-leaf
// sections are absent and the INT section is what a downstream switch
// finds at the front. It must still fall through to its group table:
// exactly the receivers get the frame, each copy carries one INT record
// per switch it crossed, and nothing is dropped as malformed — on the
// sync forwarder and on the in-memory wire engine alike.
func TestINTAfterAbsentDownstreamSection(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit, cfg.SpineRuleLimit, cfg.EnableINT = 0, 0, true
	ctrl, f := setup(t, topo, cfg)
	key := controller.GroupKey{Tenant: 6, Group: 4}
	a := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	const sender = topology.HostID(0)
	receivers := []topology.HostID{9, 40} // same pod, other pod
	members := map[topology.HostID]controller.Role{sender: controller.RoleBoth}
	for _, h := range receivers {
		members[h] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	if noPath, err := f.InstallGroupAt(0, ctrl, key); err != nil || len(noPath) != 0 {
		t.Fatalf("install: %v, no-path senders %v", err, noPath)
	}
	if g := ctrl.Group(key); g.Enc.DLeafSection != nil || g.Enc.DSpineSection != nil || !g.Enc.UsesSRules() {
		t.Fatalf("encoding still carries downstream sections: %+v", g.Enc)
	}

	d, err := f.Send(sender, a, []byte("s-rules only"))
	if err != nil {
		t.Fatalf("sync forwarder: %v", err)
	}
	h := newWireHarness(f)
	got := h.send(t, sender, a, []byte("s-rules only"))
	if d.Malformed != 0 || d.Lost != 0 || h.malformed.Value() != 0 {
		t.Fatalf("sync malformed=%d lost=%d, wire malformed=%d", d.Malformed, d.Lost, h.malformed.Value())
	}
	if len(d.Received) != len(receivers) || len(got) != len(receivers) {
		t.Fatalf("sync reached %d hosts, wire %d, want %d", len(d.Received), len(got), len(receivers))
	}
	for _, r := range receivers {
		hops := 3 // leaf, spine, leaf
		if topo.HostPod(r) != topo.HostPod(sender) {
			hops = 5 // leaf, spine, core, spine, leaf
		}
		if _, ok := d.Received[r]; !ok || len(d.Telemetry[r]) != hops {
			t.Fatalf("sync: host %d received=%t with INT path %+v, want %d hops", r, ok, d.Telemetry[r], hops)
		}
		if pkts := got[r]; len(pkts) != 1 || !reflect.DeepEqual(pkts[0].Telemetry, d.Telemetry[r]) {
			t.Fatalf("wire: host %d got %+v, sync INT path %+v", r, pkts, d.Telemetry[r])
		}
	}
}
