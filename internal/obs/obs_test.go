package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/raceflag"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// fakeDurable is a controllable DurableStatus for readiness tests.
type fakeDurable struct {
	epoch, lsn, snapLSN uint64
	misses              int
	notLeader, replErr  error
}

func (d *fakeDurable) Epoch() uint64         { return d.epoch }
func (d *fakeDurable) LastLSN() uint64       { return d.lsn }
func (d *fakeDurable) SnapshotLSN() uint64   { return d.snapLSN }
func (d *fakeDurable) LeaseMisses() int      { return d.misses }
func (d *fakeDurable) NotLeaderErr() error   { return d.notLeader }
func (d *fakeDurable) ReplicationErr() error { return d.replErr }

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestOpsPlaneEndpoints runs the whole ops plane end to end: cluster,
// traffic, sampler cut, and every JSON endpoint.
func TestOpsPlaneEndpoints(t *testing.T) {
	ctrl, f := testCluster(t)
	key := controller.GroupKey{Tenant: 1, Group: 1}
	installGroup(t, ctrl, f, key, figure3Hosts())
	key2 := controller.GroupKey{Tenant: 2, Group: 5}
	installGroup(t, ctrl, f, key2, []topology.HostID{2, 3})

	reg := telemetry.NewRegistry()
	dur := &fakeDurable{epoch: 3, lsn: 42, snapLSN: 40, misses: 1}
	acked, total := 2, 2
	p := New(Options{
		Topology:     f.Topology(),
		Registry:     reg,
		Controller:   ctrl,
		Durable:      dur,
		FollowerAcks: func() (int, int) { return acked, total },
	})
	p.Enable()
	f.SetObserver(p)

	for i := 0; i < 5; i++ {
		if _, err := f.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, []byte("ops")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Send(2, dataplane.GroupAddr{VNI: 2, Group: 5}, []byte("ops2")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(5000, 0)
	p.Sample(t0)
	p.Sample(t0.Add(time.Second))

	srv, err := telemetry.Serve("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p.Mount(srv)
	base := "http://" + srv.Addr()

	// Index lists the mounted ops endpoints (satellite: server index).
	resp, err := http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	index := string(body)
	for _, want := range []string{"/metrics", "/debug/elmo/groups", "/debug/elmo/links", "/healthz", "/readyz"} {
		if !strings.Contains(index, want) {
			t.Errorf("index page missing %s:\n%s", want, index)
		}
	}

	// /debug/elmo/groups
	var groups GroupsResponse
	getJSON(t, base+"/debug/elmo/groups", &groups)
	if groups.TotalGroups != 2 || len(groups.Groups) != 2 {
		t.Fatalf("groups: total=%d len=%d, want 2/2", groups.TotalGroups, len(groups.Groups))
	}
	g0 := groups.Groups[0]
	if g0.VNI != 1 || g0.Group != 1 || g0.Members != 6 || g0.Senders != 6 || g0.Receivers != 6 {
		t.Fatalf("group summary wrong: %+v", g0)
	}
	if len(groups.HeavyHitters) != 2 || groups.HeavyHitters[0].VNI != 1 || groups.HeavyHitters[0].Count != 5 {
		t.Fatalf("heavy hitters wrong: %+v", groups.HeavyHitters)
	}
	if groups.SketchTotal != 6 {
		t.Fatalf("sketch total %d, want 6", groups.SketchTotal)
	}

	// /debug/elmo/group/{vni}/{group}
	var detail controller.GroupDetail
	getJSON(t, base+"/debug/elmo/group/1/1", &detail)
	if len(detail.MemberList) != 6 || len(detail.Tree) == 0 || len(detail.Headers) != 6 {
		t.Fatalf("group detail wrong: members=%d tree=%d headers=%d",
			len(detail.MemberList), len(detail.Tree), len(detail.Headers))
	}
	for _, h := range detail.Headers {
		if h.Err != "" || h.Bytes <= 0 {
			t.Fatalf("sender %d header: bytes=%d err=%q", h.Sender, h.Bytes, h.Err)
		}
	}
	if resp := getJSON(t, base+"/debug/elmo/group/9/9", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing group status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/debug/elmo/group/bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed group path status %d, want 400", resp.StatusCode)
	}

	// /debug/elmo/links
	var links LinksResponse
	getJSON(t, base+"/debug/elmo/links?n=5", &links)
	if links.NumLinks == 0 || len(links.Top) != 5 {
		t.Fatalf("links: num=%d top=%d", links.NumLinks, len(links.Top))
	}
	if links.Top[0].Bytes <= 0 || links.Top[0].Name == "" {
		t.Fatalf("top link empty: %+v", links.Top[0])
	}

	// /debug/elmo/controller
	var ci ControllerResponse
	getJSON(t, base+"/debug/elmo/controller", &ci)
	if ci.TotalGroups != 2 {
		t.Fatalf("controller info wrong: %+v", ci.ControllerInfo)
	}
	// Fig. 3 groups encode as pure p-rules: every update lands on the
	// sender/receiver hypervisors.
	if ci.HypervisorUpdates == 0 || ci.HypervisorUpdates != ctrl.Stats().Total() {
		t.Fatalf("update counters %+v, want every one of the controller's %d on a hypervisor",
			ci.ControllerInfo, ctrl.Stats().Total())
	}
	if ci.Durable == nil || ci.Durable.Epoch != 3 || ci.Durable.WALLSN != 42 ||
		ci.Durable.SnapshotLag != 2 || !ci.Durable.Leader || ci.Durable.FollowersAcked != 2 {
		t.Fatalf("durable info wrong: %+v", ci.Durable)
	}

	// /debug/elmo/slo + /healthz green.
	var slo SLOStatus
	getJSON(t, base+"/debug/elmo/slo", &slo)
	if len(slo.Objectives) != 2 || !slo.Healthy {
		t.Fatalf("slo status wrong: %+v", slo)
	}
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}

	// /readyz flips with leadership and replication currency.
	if resp := getJSON(t, base+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d, want 200", resp.StatusCode)
	}
	dur.notLeader = errors.New("lease expired")
	if resp := getJSON(t, base+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while deposed %d, want 503", resp.StatusCode)
	}
	dur.notLeader = nil
	acked = 1
	if resp := getJSON(t, base+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while lagging %d, want 503", resp.StatusCode)
	}
	acked = 2

	// SLO gauges render in the exposition.
	var expo strings.Builder
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"elmo_slo_healthy 1",
		"elmo_slo_ready 1",
		`elmo_slo_good_ratio{objective="delivery_ratio"} 1`,
		`elmo_slo_burn_rate{objective="send_latency",window="5m0s"}`,
		"elmo_obs_send_latency_seconds_count 6",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestObserverDisabledAddsNoAllocations is the alloc-parity gate: a
// fabric with the ops plane attached but disabled allocates exactly as
// much per send as a bare fabric (same discipline as trace/chaos/
// metrics). It also records the enabled-path budget so regressions
// show up in -v output.
func TestObserverDisabledAddsNoAllocations(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	send := func(f *fabric.Fabric) func() {
		addr := dataplane.GroupAddr{VNI: 1, Group: 1}
		payload := []byte("alloc probe")
		return func() {
			if _, err := f.Send(0, addr, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	key := controller.GroupKey{Tenant: 1, Group: 1}

	ctrl, bare := testCluster(t)
	installGroup(t, ctrl, bare, key, figure3Hosts())
	baseline := testing.AllocsPerRun(200, send(bare))

	ctrl2, observed := testCluster(t)
	installGroup(t, ctrl2, observed, key, figure3Hosts())
	p := New(Options{Topology: observed.Topology()})
	observed.SetObserver(p) // attached but NOT enabled
	disabled := testing.AllocsPerRun(200, send(observed))
	if disabled != baseline {
		t.Fatalf("attached-but-disabled observer changed allocations: %.1f → %.1f per send",
			baseline, disabled)
	}

	// Unicast baseline path under the same contract.
	uni := func(f *fabric.Fabric) func() {
		hosts := figure3Hosts()
		payload := []byte("alloc probe")
		return func() {
			if _, err := f.SendUnicast(0, hosts, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	uniBare := testing.AllocsPerRun(200, uni(bare))
	uniObserved := testing.AllocsPerRun(200, uni(observed))
	if uniObserved != uniBare {
		t.Fatalf("disabled observer changed unicast allocations: %.1f → %.1f per send",
			uniBare, uniObserved)
	}

	// Enabled path: record the budget. The sketch map and histogram
	// cells are preallocated, so steady state stays small; log it for
	// the bench journal rather than pinning an exact number.
	p.Enable()
	enabled := testing.AllocsPerRun(200, send(observed))
	t.Logf("allocs/send: bare=%.1f disabled=%.1f enabled=%.1f", baseline, disabled, enabled)
	if p.groups.Total() == 0 {
		t.Fatal("enabled observer recorded nothing")
	}
}
