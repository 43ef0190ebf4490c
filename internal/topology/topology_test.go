package topology

import (
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := PaperExample()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper example invalid: %v", err)
	}
	bads := []Config{
		{},
		{Pods: 0, SpinesPerPod: 1, LeavesPerPod: 1, HostsPerLeaf: 1, CoresPerPlane: 1},
		{Pods: 1, SpinesPerPod: -1, LeavesPerPod: 1, HostsPerLeaf: 1, CoresPerPlane: 1},
		{Pods: 1, SpinesPerPod: 1, LeavesPerPod: 0, HostsPerLeaf: 1, CoresPerPlane: 1},
		{Pods: 1, SpinesPerPod: 1, LeavesPerPod: 1, HostsPerLeaf: 0, CoresPerPlane: 1},
		{Pods: 1, SpinesPerPod: 1, LeavesPerPod: 1, HostsPerLeaf: 1, CoresPerPlane: 0},
	}
	for i, cfg := range bads {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: expected error", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted invalid config", i)
		}
	}
}

func TestPaperExampleCounts(t *testing.T) {
	topo := MustNew(PaperExample())
	if got := topo.NumHosts(); got != 64 {
		t.Errorf("NumHosts = %d, want 64", got)
	}
	if got := topo.NumLeaves(); got != 8 {
		t.Errorf("NumLeaves = %d, want 8", got)
	}
	if got := topo.NumSpines(); got != 8 {
		t.Errorf("NumSpines = %d, want 8", got)
	}
	if got := topo.NumCores(); got != 4 {
		t.Errorf("NumCores = %d, want 4", got)
	}
	if got := topo.NumSwitches(); got != 20 {
		t.Errorf("NumSwitches = %d, want 20", got)
	}
}

func TestFacebookFabricCounts(t *testing.T) {
	topo := MustNew(FacebookFabric())
	if got := topo.NumHosts(); got != 27648 {
		t.Errorf("NumHosts = %d, want 27648 (paper: 27,648 hosts)", got)
	}
	if got := topo.NumLeaves(); got != 576 {
		t.Errorf("NumLeaves = %d, want 576", got)
	}
}

func TestHostRelations(t *testing.T) {
	topo := MustNew(PaperExample()) // 8 hosts/leaf, 2 leaves/pod
	// Host 9 is port 1 of leaf 1 (pod 0).
	h := HostID(9)
	if l := topo.HostLeaf(h); l != 1 {
		t.Errorf("HostLeaf(9) = %d, want 1", l)
	}
	if p := topo.HostPort(h); p != 1 {
		t.Errorf("HostPort(9) = %d, want 1", p)
	}
	if p := topo.HostPod(h); p != 0 {
		t.Errorf("HostPod(9) = %d, want 0", p)
	}
	if got := topo.HostAt(1, 1); got != h {
		t.Errorf("HostAt(1,1) = %d, want %d", got, h)
	}
	// Host 63 is the last host: leaf 7, pod 3, port 7.
	if l := topo.HostLeaf(63); l != 7 {
		t.Errorf("HostLeaf(63) = %d, want 7", l)
	}
	if p := topo.HostPod(63); p != 3 {
		t.Errorf("HostPod(63) = %d, want 3", p)
	}
}

func TestLeafSpineCoreRelations(t *testing.T) {
	topo := MustNew(PaperExample())
	// Leaf 5 is leaf index 1 of pod 2 (paper Fig. 3 labels L5 in P2).
	if p := topo.LeafPod(5); p != 2 {
		t.Errorf("LeafPod(5) = %d, want 2", p)
	}
	if i := topo.LeafIndexInPod(5); i != 1 {
		t.Errorf("LeafIndexInPod(5) = %d, want 1", i)
	}
	if l := topo.LeafAt(2, 1); l != 5 {
		t.Errorf("LeafAt(2,1) = %d, want 5", l)
	}
	// Spine 5 is plane 1 of pod 2.
	if p := topo.SpinePod(5); p != 2 {
		t.Errorf("SpinePod(5) = %d, want 2", p)
	}
	if pl := topo.SpinePlane(5); pl != 1 {
		t.Errorf("SpinePlane(5) = %d, want 1", pl)
	}
	// Leaf 5's upstream port 1 reaches spine plane 1 of pod 2 = spine 5.
	if s := topo.LeafUpstream(5, 1); s != 5 {
		t.Errorf("LeafUpstream(5,1) = %d, want 5", s)
	}
	// Spine 5 downstream port 0 reaches leaf 4.
	if l := topo.SpineDownstream(5, 0); l != 4 {
		t.Errorf("SpineDownstream(5,0) = %d, want 4", l)
	}
	// Spine 5 (plane 1) upstream port 0 reaches core 2 (plane 1's first).
	if c := topo.SpineUpstream(5, 0); c != 2 {
		t.Errorf("SpineUpstream(5,0) = %d, want 2", c)
	}
	if pl := topo.CorePlane(2); pl != 1 {
		t.Errorf("CorePlane(2) = %d, want 1", pl)
	}
	// Core 2 (plane 1) downstream to pod 3 reaches spine plane 1 of pod 3 = spine 7.
	if s := topo.CoreDownstream(2, 3); s != 7 {
		t.Errorf("CoreDownstream(2,3) = %d, want 7", s)
	}
}

func TestWidths(t *testing.T) {
	topo := MustNew(PaperExample())
	if topo.LeafDownWidth() != 8 || topo.LeafUpWidth() != 2 ||
		topo.SpineDownWidth() != 2 || topo.SpineUpWidth() != 2 ||
		topo.CoreDownWidth() != 4 {
		t.Fatalf("widths = %d %d %d %d %d", topo.LeafDownWidth(), topo.LeafUpWidth(),
			topo.SpineDownWidth(), topo.SpineUpWidth(), topo.CoreDownWidth())
	}
}

func TestHostsUnderLeaf(t *testing.T) {
	topo := MustNew(PaperExample())
	for i := 0; i < topo.Config().HostsPerLeaf; i++ {
		if h := topo.HostAt(2, i); h != HostID(16+i) || topo.HostLeaf(h) != 2 {
			t.Fatalf("HostAt(2, %d) = %d under leaf %d, want host %d under leaf 2", i, h, topo.HostLeaf(h), 16+i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	topo := MustNew(PaperExample())
	cases := map[string]func(){
		"HostLeaf":      func() { topo.HostLeaf(64) },
		"LeafPod":       func() { topo.LeafPod(-1) },
		"SpinePod":      func() { topo.SpinePod(8) },
		"CorePlane":     func() { topo.CorePlane(4) },
		"LeafUpstream":  func() { topo.LeafUpstream(0, 2) },
		"SpineUpstream": func() { topo.SpineUpstream(0, 2) },
		"LeafAt":        func() { topo.LeafAt(0, 2) },
		"SpineAt":       func() { topo.SpineAt(4, 0) },
		"HostAt":        func() { topo.HostAt(0, 8) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuickHostRoundTrip(t *testing.T) {
	topo := MustNew(FacebookFabric())
	f := func(raw uint32) bool {
		h := HostID(int(raw) % topo.NumHosts())
		l := topo.HostLeaf(h)
		return topo.HostAt(l, topo.HostPort(h)) == h &&
			topo.LeafAt(topo.LeafPod(l), topo.LeafIndexInPod(l)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUpDownSymmetry(t *testing.T) {
	topo := MustNew(FacebookFabric())
	cfg := topo.Config()
	f := func(rawSpine, rawPort uint16) bool {
		s := SpineID(int(rawSpine) % topo.NumSpines())
		up := int(rawPort) % cfg.CoresPerPlane
		c := topo.SpineUpstream(s, up)
		// The core's downstream port for the spine's pod must reach s back.
		return topo.CoreDownstream(c, topo.SpinePod(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFailureSet(t *testing.T) {
	topo := MustNew(PaperExample())
	var nilSet *FailureSet
	if nilSet.SpineFailed(0) || nilSet.CoreFailed(0) || !nilSet.Empty() {
		t.Fatal("nil FailureSet should report healthy")
	}
	f := NewFailureSet()
	if !f.Empty() {
		t.Fatal("new set not empty")
	}
	f.FailSpine(4) // pod 2 plane 0
	f.FailCore(1)  // plane 0
	if !f.SpineFailed(4) || !f.CoreFailed(1) {
		t.Fatal("failures not recorded")
	}
	if s, c := f.NumFailed(); s != 1 || c != 1 {
		t.Fatalf("NumFailed = %d,%d", s, c)
	}
	cores := f.HealthyCoresInPlane(topo, 0)
	if len(cores) != 1 || cores[0] != 0 {
		t.Fatalf("HealthyCoresInPlane(0) = %v, want [0]", cores)
	}
	f.RepairSpine(4)
	f.RepairCore(1)
	if !f.Empty() {
		t.Fatal("repair did not clear failures")
	}
}

func TestTwoTierLeafSpine(t *testing.T) {
	// The CONGA-style two-tier fabric of §5.1.1: one pod whose spines
	// are the top tier.
	topo := MustNew(Config{Pods: 1, SpinesPerPod: 4, LeavesPerPod: 24, HostsPerLeaf: 12, CoresPerPlane: 1})
	if topo.NumPods() != 1 || topo.NumSpines() != 4 || topo.NumLeaves() != 24 {
		t.Fatalf("two-tier dims: %s", topo)
	}
	if topo.NumHosts() != 288 {
		t.Fatalf("hosts = %d", topo.NumHosts())
	}
	// Every leaf's pod is pod 0; the core tier is vestigial (1 wide).
	if topo.LeafPod(23) != 0 || topo.CoreDownWidth() != 1 {
		t.Fatal("two-tier structure wrong")
	}
}
