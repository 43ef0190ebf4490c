package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// TestStaleEpochFencesEveryWrite states the fence as one rule over all
// seven writes a leader can send (the five device messages and the two
// group walks): once the fabric has heard epoch e, a write at any lower
// epoch — 0 included, it is no bypass — fails with a StaleEpochError
// carrying e, changes no forwarding state, and is counted exactly once.
func TestStaleEpochFencesEveryWrite(t *testing.T) {
	const announced = 5
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit, cfg.SpineRuleLimit = 0, 0 // every group needs s-rules
	ctrl, f := setup(t, topo, cfg)

	installed := controller.GroupKey{Tenant: 1, Group: 1}
	pending := controller.GroupKey{Tenant: 1, Group: 2}
	members := map[topology.HostID]controller.Role{0: controller.RoleBoth, 1: controller.RoleReceiver, 40: controller.RoleBoth}
	for _, key := range []controller.GroupKey{installed, pending} {
		if _, err := ctrl.CreateGroup(key, members); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.InstallGroupAt(announced-1, ctrl, installed); err != nil {
		t.Fatal(err)
	}
	f.AnnounceEpoch(announced)

	a := addr(installed)
	hdr, err := ctrl.HeaderFor(installed, 0)
	if err != nil {
		t.Fatal(err)
	}
	ports := bitmap.FromPorts(header.LayoutFor(topo).LeafDown, 3)
	writes := []struct {
		name string
		at   func(epoch uint64) error
	}{
		{"InstallSRuleAt", func(e uint64) error { return f.Leaves[2].InstallSRuleAt(e, a, ports) }},
		{"RemoveSRuleAt", func(e uint64) error { return f.Leaves[0].RemoveSRuleAt(e, a) }},
		{"InstallSenderFlowAt", func(e uint64) error { return installHeader(f, e, 1, a, hdr) }},
		{"RemoveSenderFlowAt", func(e uint64) error { return f.Hypervisors[0].RemoveSenderFlowAt(e, a) }},
		{"SetReceivingAt", func(e uint64) error { return f.Hypervisors[40].SetReceivingAt(e, a, false) }},
		{"InstallGroupAt", func(e uint64) error { _, err := f.InstallGroupAt(e, ctrl, pending); return err }},
		{"UninstallGroupAt", func(e uint64) error { return f.UninstallGroupAt(e, ctrl, installed) }},
	}
	for _, w := range writes {
		for _, stale := range []uint64{0, announced - 1} {
			before, rejected := f.Fingerprint(), f.FencingRejections()
			err := w.at(stale)
			var se *dataplane.StaleEpochError
			if !errors.Is(err, dataplane.ErrStaleEpoch) || !errors.As(err, &se) {
				t.Fatalf("%s at epoch %d: error %v, want a StaleEpochError", w.name, stale, err)
			}
			if se.Epoch != stale || se.Current != announced {
				t.Fatalf("%s at epoch %d: %+v, want Current %d", w.name, stale, se, announced)
			}
			if f.Fingerprint() != before {
				t.Fatalf("%s at epoch %d changed forwarding state", w.name, stale)
			}
			if got := f.FencingRejections() - rejected; got != 1 {
				t.Fatalf("%s at epoch %d counted %d rejections, want 1", w.name, stale, got)
			}
		}
	}
	// The same writes at the announced epoch all go through.
	for _, w := range writes {
		if err := w.at(announced); err != nil {
			t.Fatalf("%s at the announced epoch: %v", w.name, err)
		}
	}

	// The fence aborts the group walk where it strikes: with only the
	// k-th hypervisor of the walk (receivers ascending, then senders
	// ascending) fenced, the error names that host, every device before
	// it holds what the walk wrote, and no device after it was touched.
	walkKey := controller.GroupKey{Tenant: 1, Group: 3}
	if _, err := ctrl.CreateGroup(walkKey, map[topology.HostID]controller.Role{
		0: controller.RoleBoth, 1: controller.RoleReceiver, 9: controller.RoleReceiver, 17: controller.RoleSender,
		40: controller.RoleBoth, 41: controller.RoleReceiver, 50: controller.RoleSender,
	}); err != nil {
		t.Fatal(err)
	}
	g := ctrl.Group(walkKey)
	wa := addr(walkKey)
	receivers, senders := g.Receivers(), g.Senders()
	walk := append(append([]topology.HostID(nil), receivers...), senders...)
	const stale = announced - 1
	for _, host := range walk {
		k := slices.Index(walk, host) // a host with both roles is struck at its first write
		walked, parts := New(topo, cfg.SRuleCapacity), New(topo, cfg.SRuleCapacity)
		walked.Hypervisors[host].Fence().Observe(announced)
		_, err := walked.InstallGroupAt(stale, ctrl, walkKey)
		var se *dataplane.StaleEpochError
		if !errors.As(err, &se) {
			t.Fatalf("walk with host %d fenced: error %v, want a StaleEpochError", host, err)
		}
		if want := fmt.Sprintf("host %d", host); se.Device != want || se.Epoch != stale || se.Current != announced {
			t.Fatalf("walk with host %d fenced: %+v, want device %q", host, se, want)
		}
		if got := walked.FencingRejections(); got != 1 {
			t.Fatalf("walk with host %d fenced: %d rejections, want 1", host, got)
		}
		if err := parts.InstallEncodingAt(stale, wa, g.Enc, receivers[:min(k, len(receivers))]); err != nil {
			t.Fatal(err)
		}
		for _, s := range senders[:max(0, k-len(receivers))] {
			hdr, err := ctrl.HeaderFor(walkKey, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := installHeader(parts, stale, s, wa, hdr); err != nil {
				t.Fatal(err)
			}
		}
		if walked.Fingerprint() != parts.Fingerprint() {
			t.Fatalf("walk fenced at host %d (write %d of %d) did not stop there", host, k+1, len(walk))
		}
	}
}

// TestStaleWalkNamesFirstDeviceInIDOrder: both group walks write devices
// in ascending ID order — leaves, then spines, then hosts — so once a
// newer epoch is announced, a stale walk is refused by the same device
// on every run: the lowest receiver host for a p-rule-only group, the
// lowest s-rule leaf otherwise. Ranging over a map would name a
// different device from one try to the next.
func TestStaleWalkNamesFirstDeviceInIDOrder(t *testing.T) {
	topo := paperTopo()
	members := map[topology.HostID]controller.Role{}
	for _, h := range []topology.HostID{30, 9, 26, 17, 12} { // leaves 3, 1, 3, 2, 1
		members[h] = controller.RoleReceiver
	}
	for _, tc := range []struct {
		name   string
		cfg    func(*controller.Config)
		srules bool
		want   string
	}{
		{"p-rule", func(*controller.Config) {}, false, "host 9"},
		{"s-rule", func(c *controller.Config) { c.LeafRuleLimit, c.SpineRuleLimit = 0, 0 }, true, "leaf 1"},
	} {
		cfg := testConfig(0)
		tc.cfg(&cfg)
		ctrl, f := setup(t, topo, cfg)
		key := controller.GroupKey{Tenant: 4, Group: 1}
		g, err := ctrl.CreateGroup(key, members)
		if err != nil {
			t.Fatal(err)
		}
		if g.Enc.UsesSRules() != tc.srules || (tc.srules && len(g.Enc.LeafSRules) < 3) {
			t.Fatalf("%s: setup holds %d leaf s-rules", tc.name, len(g.Enc.LeafSRules))
		}
		if _, err := f.InstallGroupAt(1, ctrl, key); err != nil {
			t.Fatal(err)
		}
		f.AnnounceEpoch(2)
		walks := []struct {
			name string
			run  func() error
		}{
			{"InstallGroupAt", func() error { _, err := f.InstallGroupAt(1, ctrl, key); return err }},
			{"UninstallGroupAt", func() error { return f.UninstallGroupAt(1, ctrl, key) }},
		}
		for _, w := range walks {
			for try := 0; try < 50; try++ {
				var se *dataplane.StaleEpochError
				if err := w.run(); !errors.As(err, &se) || se.Device != tc.want {
					t.Fatalf("%s %s try %d: error %v, want a StaleEpochError from %s", tc.name, w.name, try, err, tc.want)
				}
			}
		}
	}
}

// TestInstallWalkParity checks the one walk against its parts on seeded
// groups over every rule kind: InstallGroupAt leaves exactly the state
// the encoding-level install plus one InstallSenderFlowAt per routable
// sender leaves, and UninstallGroupAt returns the fabric to what it was.
func TestInstallWalkParity(t *testing.T) {
	const groupsPerPath = 50 // x4 paths = 200 groups
	paths := []struct {
		name   string
		cfg    func(*controller.Config)
		legacy bool
	}{
		{name: "p-rule", cfg: func(c *controller.Config) {}},
		{name: "s-rule", cfg: func(c *controller.Config) { c.LeafRuleLimit, c.SpineRuleLimit, c.SRuleCapacity = 1, 1, 64 }},
		{name: "default-rule", cfg: func(c *controller.Config) { c.LeafRuleLimit, c.SpineRuleLimit, c.SRuleCapacity = 0, 0, 0 }},
		{name: "legacy-leaf", cfg: func(c *controller.Config) { c.LegacyLeaves = []topology.LeafID{7} }, legacy: true},
	}
	for pi, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			const epoch = 2
			topo := paperTopo()
			cfg := testConfig(0)
			p.cfg(&cfg)
			ctrl, walked := setup(t, topo, cfg)
			parts := New(topo, cfg.SRuleCapacity)
			if p.legacy {
				walked.SetLegacyLeaf(7)
				parts.SetLegacyLeaf(7)
			}
			rng := rand.New(rand.NewSource(int64(1907 + pi)))
			sRules, noPaths := 0, 0
			for g := 0; g < groupsPerPath; g++ {
				key := controller.GroupKey{Tenant: uint32(20 + pi), Group: uint32(g + 1)}
				a := addr(key)
				members := make(map[topology.HostID]controller.Role)
				for _, host := range rng.Perm(topo.NumHosts())[:2+rng.Intn(11)] {
					members[topology.HostID(host)] = controller.Role(1 + rng.Intn(3))
				}
				if _, err := ctrl.CreateGroup(key, members); err != nil {
					t.Fatal(err)
				}
				gs := ctrl.Group(key)
				sRules += len(gs.Enc.LeafSRules) + len(gs.Enc.SpineSRules)
				empty := walked.Fingerprint()
				if parts.Fingerprint() != empty {
					t.Fatalf("group %d: fabrics differ before install", g)
				}

				noPath, err := walked.InstallGroupAt(epoch, ctrl, key)
				if err != nil {
					t.Fatal(err)
				}
				noPaths += len(noPath)
				if err := parts.InstallEncodingAt(epoch, a, gs.Enc, gs.Receivers()); err != nil {
					t.Fatal(err)
				}
				routable := 0
				for _, s := range gs.Senders() {
					hdr, err := ctrl.HeaderFor(key, s)
					if err == controller.ErrNoPath || err == controller.ErrLegacyPath {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := installHeader(parts, epoch, s, a, hdr); err != nil {
						t.Fatal(err)
					}
					routable++
				}
				if routable+len(noPath) != len(gs.Senders()) {
					t.Fatalf("group %d: %d routable + %d no-path senders of %d", g, routable, len(noPath), len(gs.Senders()))
				}
				if walked.Fingerprint() != parts.Fingerprint() {
					t.Fatalf("group %d: InstallGroupAt differs from encoding install + sender flows", g)
				}
				if walked.Fingerprint() == empty {
					t.Fatalf("group %d: install left no state", g)
				}

				if err := walked.UninstallGroupAt(epoch, ctrl, key); err != nil {
					t.Fatal(err)
				}
				if walked.Fingerprint() != empty {
					t.Fatalf("group %d: UninstallGroupAt did not restore the fabric", g)
				}
				if err := parts.UninstallEncodingAt(epoch, a, gs.Enc, gs.Receivers()); err != nil {
					t.Fatal(err)
				}
				for _, s := range gs.Senders() {
					if err := parts.Hypervisors[s].RemoveSenderFlowAt(epoch, a); err != nil {
						t.Fatal(err)
					}
				}
				if err := ctrl.RemoveGroup(key); err != nil {
					t.Fatal(err)
				}
			}
			switch p.name {
			case "s-rule":
				if sRules == 0 {
					t.Fatal("no group used an s-rule")
				}
			case "legacy-leaf":
				if sRules == 0 || noPaths == 0 {
					t.Fatalf("legacy leaf not exercised: %d s-rules, %d no-path senders", sRules, noPaths)
				}
			}
		})
	}
}
