package obs

import (
	"testing"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/livefabric"
	"elmo/internal/topology"
	"elmo/internal/udpfabric"
)

func paperTopo() *topology.Topology { return topology.MustNew(topology.PaperExample()) }

func testConfig(r int) controller.Config {
	return controller.Config{
		MaxHeaderBytes: 325,
		SpineRuleLimit: 2,
		LeafRuleLimit:  30,
		KMaxSpine:      2,
		KMaxLeaf:       2,
		R:              r,
		SRuleCapacity:  16,
	}
}

// testCluster builds a controller+fabric pair over the Fig. 3 topology
// with one all-roles group installed.
func testCluster(t *testing.T) (*controller.Controller, *fabric.Fabric) {
	t.Helper()
	topo := paperTopo()
	ctrl, err := controller.New(topo, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(topo, 16)
	f.SetFailures(ctrl.Failures())
	return ctrl, f
}

func installGroup(t *testing.T, ctrl *controller.Controller, f *fabric.Fabric, key controller.GroupKey, hosts []topology.HostID) {
	t.Helper()
	members := make(map[topology.HostID]controller.Role, len(hosts))
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	if noPath, err := f.InstallGroupAt(0, ctrl, key); err != nil || len(noPath) != 0 {
		t.Fatalf("install: noPath=%v err=%v", noPath, err)
	}
}

func figure3Hosts() []topology.HostID { return []topology.HostID{0, 1, 40, 48, 49, 63} }

// TestLinkIndexBijective checks the dense link indexing is a bijection
// over the Clos edge set: every directed edge maps to a distinct id in
// range, and name() round-trips the segment.
func TestLinkIndexBijective(t *testing.T) {
	topo := paperTopo()
	cfg := topo.Config()
	lt := NewLinkTable(topo, 4)
	seen := make(map[int]string, lt.NumLinks())
	record := func(l dataplane.Link, desc string) {
		idx := lt.index(l)
		if idx < 0 || idx >= lt.NumLinks() {
			t.Fatalf("%s: index %d out of range [0,%d)", desc, idx, lt.NumLinks())
		}
		if prev, dup := seen[idx]; dup {
			t.Fatalf("%s and %s collide at index %d", desc, prev, idx)
		}
		seen[idx] = desc
	}
	for h := 0; h < topo.NumHosts(); h++ {
		leaf := topo.HostLeaf(topology.HostID(h))
		record(dataplane.Link{FromTier: dataplane.LinkHost, From: int32(h), ToTier: dataplane.LinkLeaf, To: int32(leaf)}, "host->leaf")
		record(dataplane.Link{FromTier: dataplane.LinkLeaf, From: int32(leaf), ToTier: dataplane.LinkHost, To: int32(h)}, "leaf->host")
	}
	for l := 0; l < topo.NumLeaves(); l++ {
		for port := 0; port < cfg.SpinesPerPod; port++ {
			s := topo.LeafUpstream(topology.LeafID(l), port)
			record(dataplane.Link{FromTier: dataplane.LinkLeaf, From: int32(l), ToTier: dataplane.LinkSpine, To: int32(s)}, "leaf->spine")
			record(dataplane.Link{FromTier: dataplane.LinkSpine, From: int32(s), ToTier: dataplane.LinkLeaf, To: int32(l)}, "spine->leaf")
		}
	}
	for s := 0; s < topo.NumSpines(); s++ {
		for port := 0; port < cfg.CoresPerPlane; port++ {
			c := topo.SpineUpstream(topology.SpineID(s), port)
			record(dataplane.Link{FromTier: dataplane.LinkSpine, From: int32(s), ToTier: dataplane.LinkCore, To: int32(c)}, "spine->core")
			record(dataplane.Link{FromTier: dataplane.LinkCore, From: int32(c), ToTier: dataplane.LinkSpine, To: int32(s)}, "core->spine")
		}
	}
	if len(seen) != lt.NumLinks() {
		t.Fatalf("enumerated %d directed edges, table sized for %d", len(seen), lt.NumLinks())
	}
}

// teeObserver forwards to a Plane while keeping an exact per-link
// ledger — the ground truth the dense table is checked against.
type teeObserver struct {
	p     *Plane
	exact map[dataplane.Link]int64
}

func (o *teeObserver) Active() bool { return true }
func (o *teeObserver) ObserveLink(l dataplane.Link, b int) {
	o.exact[l] += int64(b)
	o.p.ObserveLink(l, b)
}
func (o *teeObserver) ObserveSend(s dataplane.SendSample) { o.p.ObserveSend(s) }

// linkTotals snapshots the table's cumulative bytes per link index.
func linkTotals(lt *LinkTable) (totals []int64, sum int64) {
	totals = make([]int64, lt.NumLinks())
	for idx := range totals {
		totals[idx] = lt.bytes[idx].Load()
		sum += totals[idx]
	}
	return totals, sum
}

// wireTierTotals replays the multicast sends of
// TestLinkTableMatchesExactCounting over a wire-engine tier built by
// start, and returns the per-link totals once wantSum bytes crossed.
func wireTierTotals(t *testing.T, wantSum int64, start func(*fabric.Fabric) (send func(topology.HostID, dataplane.GroupAddr, []byte) error, stop func())) []int64 {
	t.Helper()
	ctrl, f := testCluster(t)
	installGroup(t, ctrl, f, controller.GroupKey{Tenant: 1, Group: 1}, figure3Hosts())
	p := New(Options{Topology: f.Topology()})
	p.Enable()
	f.SetObserver(p)
	send, stop := start(f)
	defer stop()
	for _, sender := range figure3Hosts() {
		if err := send(sender, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("accuracy probe")); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		totals, sum := linkTotals(p.Links())
		if sum == wantSum {
			return totals
		}
		if time.Now().After(deadline) {
			t.Fatalf("tier moved %d bytes, sync fabric %d", sum, wantSum)
		}
	}
}

// TestLinkTableMatchesExactCounting sends a seeded multicast workload
// and asserts the dense cumulative counters agree byte-for-byte with
// an exact map keyed by the raw link structs, and with the Delivery
// totals — and that the channel and UDP tiers, which report crossings
// from the wire engine, fill the table identically link for link.
func TestLinkTableMatchesExactCounting(t *testing.T) {
	ctrl, f := testCluster(t)
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())

	p := New(Options{Topology: f.Topology()})
	p.Enable()
	tee := &teeObserver{p: p, exact: make(map[dataplane.Link]int64)}
	f.SetObserver(tee)

	wantBytes := 0
	for _, sender := range figure3Hosts() {
		d, err := f.Send(sender, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("accuracy probe"))
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += d.LinkBytes
	}
	multicast, multicastSum := linkTotals(p.Links())
	// Baseline unicast crosses links too and must land in the table.
	du, err := f.SendUnicast(0, figure3Hosts(), []byte("unicast probe"))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes += du.LinkBytes

	lt := p.Links()
	var gotBytes int64
	for idx := 0; idx < lt.NumLinks(); idx++ {
		gotBytes += lt.bytes[idx].Load()
	}
	if gotBytes != int64(wantBytes) {
		t.Errorf("table total %d bytes, Delivery total %d", gotBytes, wantBytes)
	}
	for l, want := range tee.exact {
		idx := lt.index(l)
		if idx < 0 {
			t.Fatalf("link %+v not indexable", l)
		}
		got := lt.bytes[idx].Load()
		if got != want {
			t.Errorf("link %+v: table %d bytes, exact %d", l, got, want)
		}
	}

	tiers := map[string]func(*fabric.Fabric) (func(topology.HostID, dataplane.GroupAddr, []byte) error, func()){
		"channel": func(base *fabric.Fabric) (func(topology.HostID, dataplane.GroupAddr, []byte) error, func()) {
			lf := livefabric.New(base)
			lf.Start()
			return lf.Send, lf.Stop
		},
		"udp": func(base *fabric.Fabric) (func(topology.HostID, dataplane.GroupAddr, []byte) error, func()) {
			u, err := udpfabric.New(base)
			if err != nil {
				t.Fatal(err)
			}
			u.Start()
			return u.Send, u.Close
		},
	}
	for name, start := range tiers {
		got := wireTierTotals(t, multicastSum, start)
		for idx, want := range multicast {
			if got[idx] != want {
				t.Errorf("%s tier, link %s: %d bytes, sync fabric %d", name, lt.name(idx), got[idx], want)
			}
		}
	}
}

// TestLinkRatesAndTopN drives the ring with a hand-built schedule and
// fake clock and checks windowed rates and top-N ordering.
func TestLinkRatesAndTopN(t *testing.T) {
	topo := paperTopo()
	lt := NewLinkTable(topo, 4)
	hot := dataplane.Link{FromTier: dataplane.LinkHost, From: 0, ToTier: dataplane.LinkLeaf, To: 0}
	warm := dataplane.Link{FromTier: dataplane.LinkLeaf, From: 0, ToTier: dataplane.LinkSpine, To: 0}

	t0 := time.Unix(1000, 0)
	lt.Sample(t0) // establish baseline
	// Two 1s intervals: hot moves 1000 B/s, warm 400 B/s.
	for i := 1; i <= 2; i++ {
		lt.observe(hot, 1000)
		lt.observe(warm, 400)
		lt.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	top := lt.TopN(5, 0)
	if len(top) != 2 {
		t.Fatalf("TopN returned %d links, want 2", len(top))
	}
	if top[0].BytesSec != 1000 || top[1].BytesSec != 400 {
		t.Fatalf("rates = %.0f, %.0f; want 1000, 400", top[0].BytesSec, top[1].BytesSec)
	}
	if top[0].Name != "host0->leaf0" || top[1].Name != "leaf0->spine0" {
		t.Fatalf("names = %q, %q", top[0].Name, top[1].Name)
	}
	if top[0].Bytes != 2000 || top[0].Packets != 2 {
		t.Fatalf("cumulative = %d bytes / %d pkts, want 2000/2", top[0].Bytes, top[0].Packets)
	}
	// One idle interval: the last-bucket rate drops to zero while the
	// 2-bucket window still averages the earlier traffic.
	lt.Sample(t0.Add(3 * time.Second))
	top = lt.TopN(5, 1)
	if top[0].BytesSec != 0 {
		t.Fatalf("last-bucket rate = %.0f, want 0 after idle interval", top[0].BytesSec)
	}
	top = lt.TopN(5, 3)
	wantAvg := (1000.0 + 1000.0 + 0.0) / 3.0
	if top[0].BytesSec != wantAvg {
		t.Fatalf("3-bucket rate = %.1f, want %.1f", top[0].BytesSec, wantAvg)
	}
	// The ring holds width=4 buckets; after wrap the oldest vanishes.
	for i := 4; i <= 7; i++ {
		lt.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	top = lt.TopN(5, 0)
	if top[0].BytesSec != 0 {
		t.Fatalf("rate after wrap = %.1f, want 0", top[0].BytesSec)
	}
}
