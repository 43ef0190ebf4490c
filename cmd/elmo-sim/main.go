// Command elmo-sim runs the paper's §5.1 scalability experiments:
//
//	Figure 4   — P=12 clustered placement: groups covered by p-rules,
//	             s-rules per switch, traffic overhead, for R ∈ {0,6,12}
//	Figure 5   — P=1 dispersed placement: same panels
//	Sensitivity — Uniform group sizes, reduced s-rule capacity and
//	             reduced header budgets (§5.1.2 text)
//	Table 2    — churn update load (with -churn)
//	Failures   — spine/core failure impact (with -failures)
//
// The default scale is laptop-sized; pass -pods 12 -leaves 48 -hosts 48
// -spines 4 -cores 4 -tenants 3000 -groups 1000000 to reproduce the
// full 27,648-host / 1M-group configuration (takes a while).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"elmo/internal/churn"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/metrics"
	"elmo/internal/obs"
	"elmo/internal/placement"
	"elmo/internal/sim"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

func main() {
	var (
		pods        = flag.Int("pods", 4, "pods")
		spines      = flag.Int("spines", 2, "spines per pod")
		leaves      = flag.Int("leaves", 8, "leaves per pod")
		hosts       = flag.Int("hosts", 8, "hosts per leaf")
		cores       = flag.Int("cores", 2, "cores per plane")
		tenants     = flag.Int("tenants", 80, "tenants")
		groups      = flag.Int("groups", 2000, "total multicast groups")
		srules      = flag.Int("srules", 10000, "s-rule capacity per switch (Fmax)")
		dist        = flag.String("dist", "wve", "group-size distribution: wve or uniform")
		rList       = flag.String("r", "0,6,12", "comma-separated redundancy limits")
		doChurn     = flag.Bool("churn", false, "run the Table 2 churn experiment")
		events      = flag.Int("events", 20000, "churn events (with -churn)")
		doFail      = flag.Bool("failures", false, "run the failure-impact experiment")
		csvDir      = flag.String("csv", "", "directory to write figure CSV series into (empty = none)")
		doTrace     = flag.Bool("trace", false, "record a traced multicast scenario instead of the figure sweeps")
		doChaos     = flag.Bool("chaos", false, "run the scripted fault-injection scenario (seeded faults, detection, repair, reconvergence) instead of the figure sweeps")
		doDurable   = flag.Bool("durable", false, "run the durable-controller scenario (WAL, snapshot, crash recovery, replicated failover) instead of the figure sweeps")
		doPartition = flag.Bool("partition", false, "run the fenced-leadership scenario (network partition, lease expiry, epoch takeover, stale-install fencing, rejoin) instead of the figure sweeps")
		traceOut    = flag.String("traceout", "", "file to write the Chrome trace_event JSON into (with -trace; empty = none)")
		meanVMs     = flag.Float64("meanvms", 0, "mean tenant VMs (0 = auto: paper's 178.77 capped by fabric capacity)")
		workers     = flag.Int("workers", 0, "encoder workers for the figure sweeps (0 = GOMAXPROCS; results are identical for every value)")
		seed        = flag.Int64("seed", 1, "random seed")
		metricsAddr = flag.String("metrics", "", "listen address for the /metrics + pprof endpoint (e.g. :9090; empty = no listener)")
		watch       = flag.Duration("watch", 0, "print a periodic ops summary (SLO health, top links, heavy hitters) every interval (e.g. 2s; 0 = off)")
	)
	flag.Parse()
	rs, err := parseInts(*rList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid value %q for flag -r: %v\n", *rList, err)
		flag.Usage()
		os.Exit(2)
	}

	topoCfg := topology.Config{
		Pods: *pods, SpinesPerPod: *spines, LeavesPerPod: *leaves,
		HostsPerLeaf: *hosts, CoresPerPlane: *cores,
	}

	// One process-wide registry: the experiment phases below attach to
	// it, and the run ends with a telemetry summary table whether or not
	// a listener was requested. -watch (or a listener) also attaches the
	// ops plane, feeding link rates, heavy hitters, and SLO burn state
	// from the measurement fabric.
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntime(reg)
	var plane *obs.Plane
	if *watch > 0 || *metricsAddr != "" {
		plane = obs.New(obs.Options{Topology: topology.MustNew(topoCfg), Registry: reg})
		plane.Enable()
		defer plane.StartSampler()()
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		defer srv.Close()
		plane.Mount(srv)
		fmt.Printf("serving /metrics, /debug/pprof and /debug/elmo on http://%s\n", srv.Addr())
	}
	if *watch > 0 {
		done := make(chan struct{})
		defer close(done)
		go watchOps(plane, *watch, done)
	}
	if *doTrace {
		runTrace(topoCfg, *srules, *traceOut)
		return
	}
	if *doChaos {
		runChaos(topoCfg, *srules, *seed)
		return
	}
	if *doDurable {
		runDurable(topoCfg, *tenants, *groups, *srules, *meanVMs, *seed)
		return
	}
	if *doPartition {
		runPartition(topoCfg, *tenants, *groups, *srules, *meanVMs, *seed)
		return
	}
	distribution := groupgen.WVE
	if *dist == "uniform" {
		distribution = groupgen.Uniform
	}

	for _, scenario := range []struct {
		name string
		file string
		p    int
	}{
		{"Figure 4 (clustered placement, P=12)", "figure4.csv", 12},
		{"Figure 5 (dispersed placement, P=1)", "figure5.csv", 1},
	} {
		var csv *csvWriter
		if *csvDir != "" {
			var err error
			csv, err = newCSVWriter(*csvDir, scenario.file,
				"r", "groups", "p_rules_only", "leaf_p_rules_only", "with_s_rules", "default",
				"leaf_srules_mean", "leaf_srules_max", "spine_srules_mean", "spine_srules_max",
				"li_leaf_mean", "hdr_mean_bytes", "hdr_max_bytes",
				"traffic_ovh_64", "traffic_ovh_1500", "unicast_ovh_64", "unicast_ovh_1500",
				"overlay_ovh_64", "overlay_ovh_1500")
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("=== %s, %s group sizes ===\n", scenario.name, distribution)
		t := metrics.NewTable("",
			"R", "p-rules only", "leaf p-only", "with s-rules", "default", "leaf sr mean",
			"leaf sr max", "spine sr mean", "spine sr max", "Li leaf mean",
			"hdr mean B", "hdr max B", "ovh 64B", "ovh 1500B")
		for _, r := range rs {
			cfg := sim.ScalabilityConfig{
				Topology: topoCfg,
				Placement: placement.Config{
					Tenants: *tenants, VMsPerHost: 20, MinVMs: 5,
					MaxVMs:  maxVMsFor(topoCfg, scenario.p),
					MeanVMs: effectiveMeanVMs(*meanVMs, topoCfg, *tenants),
					P:       scenario.p, Seed: *seed,
				},
				Groups:              groupgen.Config{TotalGroups: *groups, MinSize: 5, Dist: distribution, Seed: *seed + 1},
				Controller:          paperController(r, *srules),
				PacketSizes:         []int{64, 1500},
				BaselineSampleEvery: 101,
				Seed:                *seed + 2,
				Workers:             *workers,
				Metrics:             reg,
			}
			if plane != nil {
				cfg.Observer = plane
			}
			start := time.Now()
			res, err := sim.RunScalability(cfg)
			if err != nil {
				log.Fatalf("%s R=%d: %v", scenario.name, r, err)
			}
			if res.DeliveryFailures > 0 {
				log.Fatalf("%s R=%d: %d delivery failures", scenario.name, r, res.DeliveryFailures)
			}
			t.AddRow(r, res.GroupsPRulesOnly, res.LeafPRulesOnly, res.GroupsWithSRules, res.GroupsWithDefault,
				res.LeafSRules.Mean(), res.LeafSRules.Max(),
				res.SpineSRules.Mean(), res.SpineSRules.Max(), res.LiLeafEntries.Mean(),
				res.HeaderBytes.Mean(), res.HeaderBytes.Max(),
				res.TrafficOverhead[64], res.TrafficOverhead[1500])
			fmt.Printf("  R=%d done in %v (unicast ovh %.2f @64B %.2f @1500B; overlay ovh %.2f @64B %.2f @1500B)\n",
				r, time.Since(start).Round(time.Millisecond),
				res.UnicastOverhead[64], res.UnicastOverhead[1500],
				res.OverlayOverhead[64], res.OverlayOverhead[1500])
			if csv != nil {
				csv.row(r, res.TotalGroups, res.GroupsPRulesOnly, res.LeafPRulesOnly,
					res.GroupsWithSRules, res.GroupsWithDefault,
					res.LeafSRules.Mean(), res.LeafSRules.Max(),
					res.SpineSRules.Mean(), res.SpineSRules.Max(),
					res.LiLeafEntries.Mean(), res.HeaderBytes.Mean(), res.HeaderBytes.Max(),
					res.TrafficOverhead[64], res.TrafficOverhead[1500],
					res.UnicastOverhead[64], res.UnicastOverhead[1500],
					res.OverlayOverhead[64], res.OverlayOverhead[1500])
			}
		}
		if csv != nil {
			if err := csv.close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Print(t)
		fmt.Println()
	}

	if *csvDir != "" {
		if err := writeManifest(*csvDir, topoCfg, *tenants, *groups, *srules, *dist, rs, *meanVMs, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *doChurn || *doFail {
		runControlPlane(topoCfg, *tenants, *groups, *srules, distribution, *events, *meanVMs, *seed, *doChurn, *doFail, reg)
	}
	printTelemetrySummary(reg)
}

// watchOps prints a compact ops summary every interval until done:
// SLO health and good ratios, the hottest links by windowed rate, and
// the heaviest groups from the space-saving sketch.
func watchOps(p *obs.Plane, every time.Duration, done <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			printOpsSummary(p)
		}
	}
}

func printOpsSummary(p *obs.Plane) {
	st := p.Status()
	var sb strings.Builder
	if st.Healthy {
		sb.WriteString("[ops] healthy")
	} else {
		sb.WriteString("[ops] UNHEALTHY")
	}
	for _, o := range st.Objectives {
		fmt.Fprintf(&sb, "  %s=%.6f", o.Name, o.GoodRatio)
	}
	sb.WriteByte('\n')
	for _, l := range p.TopLinks(3, 0) {
		fmt.Fprintf(&sb, "[ops]   link %-22s %12.0f B/s %14d B\n", l.Name, l.BytesSec, l.Bytes)
	}
	for _, h := range p.TopGroups(3) {
		fmt.Fprintf(&sb, "[ops]   group vni=%d id=%d %d pkts %d B\n", h.VNI, h.Group, h.Count, h.Bytes)
	}
	fmt.Print(sb.String())
}

// printTelemetrySummary renders the run's accumulated elmo_* series as
// a final table — the always-on view of what the instrumented layers
// counted, listener or not. Histogram buckets are folded into their
// _sum/_count series to keep the table readable.
func printTelemetrySummary(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	t := metrics.NewTable("Telemetry summary", "series", "value")
	rows := 0
	for _, k := range snap.Keys() {
		if !strings.HasPrefix(k, "elmo_") || strings.Contains(k, "_bucket{") {
			continue
		}
		if v := snap.Get(k); v != 0 {
			t.AddRow(k, v)
			rows++
		}
	}
	if rows == 0 {
		return
	}
	fmt.Println()
	fmt.Print(t)
}

// runTrace records one multicast scenario with the flight recorder on:
// a cross-pod group send, a spine failure with reroute, and the repair,
// printing the per-packet path and the controller's flight log, and
// optionally dumping the Chrome trace_event JSON for chrome://tracing.
func runTrace(topoCfg topology.Config, srules int, out string) {
	topo := topology.MustNew(topoCfg)
	cfg := paperController(0, srules)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	f := fabric.New(topo, cfg.SRuleCapacity)
	f.SetFailures(ctrl.Failures())

	rec := trace.New(trace.Config{Capacity: 1 << 16})
	rec.Enable() // every category
	ctrl.SetTracer(rec)
	f.SetTracer(rec)

	key := controller.GroupKey{Tenant: 1, Group: 1}
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	hosts := tracedHosts(topo)
	members := make(map[topology.HostID]controller.Role, len(hosts))
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		log.Fatal(err)
	}
	if _, err := f.InstallGroupAt(0, ctrl, key); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== traced scenario: tenant %d group %d, members %v ===\n", key.Tenant, key.Group, hosts)
	d, err := f.Send(hosts[0], addr, []byte("traced packet"))
	if err != nil {
		log.Fatal(err)
	}
	healthy := rec.Snapshot()
	fmt.Printf("\nhealthy send from host %d (%d copies delivered):\n  %s\n",
		hosts[0], len(d.Received), trace.RenderPath(healthy, addr.VNI, addr.Group))

	// Fail a spine in the sender's pod, refresh the sender flows with
	// the recomputed headers, and send again to show the reroute.
	failed := topo.SpineAt(topo.HostPod(hosts[0]), 0)
	ctrl.FailSpine(failed)
	if _, err := f.InstallGroupAt(0, ctrl, key); err != nil {
		log.Fatal(err)
	}
	d, err = f.Send(hosts[0], addr, []byte("after failure"))
	if err != nil {
		log.Fatal(err)
	}
	all := rec.Snapshot()
	fmt.Printf("\nafter FailSpine(%d) (%d copies delivered):\n  %s\n",
		failed, len(d.Received), trace.RenderPath(all[len(healthy):], addr.VNI, addr.Group))

	ctrl.RepairSpine(failed)
	if _, err := f.InstallGroupAt(0, ctrl, key); err != nil {
		log.Fatal(err)
	}

	final := rec.Snapshot()
	fmt.Printf("\ncontrol-plane flight log:\n%s", trace.RenderControl(final))

	if out != "" {
		fd, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteChrome(fd, final); err != nil {
			log.Fatal(err)
		}
		if err := fd.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d events written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n",
			len(final), out)
	}
}

// tracedHosts picks a small group that exercises every tier: two hosts
// under the sender's leaf (leaf-local delivery), one under a second
// leaf of the same pod (spine hop), and one in another pod (core hop),
// as the topology allows.
func tracedHosts(topo *topology.Topology) []topology.HostID {
	cfg := topo.Config()
	hosts := []topology.HostID{topo.HostAt(0, 0)}
	if cfg.HostsPerLeaf > 1 {
		hosts = append(hosts, topo.HostAt(0, 1))
	}
	if cfg.LeavesPerPod > 1 {
		hosts = append(hosts, topo.HostAt(1, 0))
	}
	if cfg.Pods > 1 {
		hosts = append(hosts, topo.HostAt(topo.LeafAt(1, 0), 0))
	}
	return hosts
}

// writeManifest records the exact run parameters next to the CSV
// series so figures are reproducible.
func writeManifest(dir string, topoCfg topology.Config, tenants, groups, srules int, dist string, rs []int, meanVMs float64, seed int64) error {
	f, err := os.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	return enc.Encode(map[string]interface{}{
		"topology":       topoCfg,
		"tenants":        tenants,
		"groups":         groups,
		"srule_capacity": srules,
		"distribution":   dist,
		"r_values":       rs,
		"mean_vms_flag":  meanVMs,
		"mean_vms_used":  effectiveMeanVMs(meanVMs, topoCfg, tenants),
		"seed":           seed,
	})
}

func paperController(r, srules int) controller.Config {
	cfg := controller.PaperConfig(r)
	cfg.SRuleCapacity = srules
	return cfg
}

// maxVMsFor keeps tenants placeable: a tenant can hold at most
// min(P, hosts-per-leaf) VMs per rack (one VM per host), so its size
// must fit within 3/4 of the fabric's per-tenant capacity.
func maxVMsFor(t topology.Config, p int) int {
	perRack := t.HostsPerLeaf
	if p > 0 && p < perRack {
		perRack = p
	}
	max := 5000
	if cap := t.Pods * t.LeavesPerPod * perRack * 3 / 4; cap < max {
		max = cap
	}
	if max < 5 {
		max = 5
	}
	return max
}

// effectiveMeanVMs picks the paper's tenant-size mean (178.77) unless
// the fabric is too small to hold it; explicit -meanvms overrides.
func effectiveMeanVMs(flagVal float64, t topology.Config, tenants int) float64 {
	if flagVal > 0 {
		return flagVal
	}
	slots := float64(t.Pods*t.LeavesPerPod*t.HostsPerLeaf) * 20
	cap := 0.7 * slots / float64(tenants)
	if cap > 178.77 {
		return 178.77
	}
	if cap < 5 {
		return 5
	}
	return cap
}

func runControlPlane(topoCfg topology.Config, tenants, groups, srules int, dist groupgen.Distribution, events int, meanVMs float64, seed int64, doChurn, doFail bool, reg *telemetry.Registry) {
	topo := topology.MustNew(topoCfg)
	dep, err := placement.Place(topo, placement.Config{
		Tenants: tenants, VMsPerHost: 20, MinVMs: 5,
		MaxVMs:  maxVMsFor(topoCfg, 1),
		MeanVMs: effectiveMeanVMs(meanVMs, topoCfg, tenants),
		P:       1, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: groups, MinSize: 5, Dist: dist, Seed: seed + 1})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := controller.New(topo, paperController(0, srules))
	if err != nil {
		log.Fatal(err)
	}
	ctrl.EnableMetrics(reg)
	fmt.Printf("=== control plane: creating %d groups ===\n", len(gs))
	if err := churn.Setup(ctrl, dep, gs, rand.New(rand.NewSource(seed+2))); err != nil {
		log.Fatal(err)
	}
	if doChurn {
		start := time.Now()
		res, err := churn.Run(ctrl, dep, gs, churn.Config{
			Events: events, EventsPerSecond: 1000, Seed: seed + 3,
			Metrics: churn.NewMetrics(reg),
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Print(res.Table2())
		fmt.Printf("(%d events applied, %d skipped, simulated %.0fs; %.0f events/sec wall-clock)\n\n",
			res.EventsApplied, res.EventsSkipped, res.Duration,
			float64(res.EventsApplied)/elapsed.Seconds())
	}
	if doFail {
		res := churn.RunFailures(ctrl, seed+4)
		t := metrics.NewTable("Failure impact (§5.1.3b)",
			"failure", "groups impacted %", "hypervisor updates")
		t.AddRow("one spine", 100*res.SpineImpactedFrac, res.SpineHypervisorUpdates)
		t.AddRow("one core", 100*res.CoreImpactedFrac, res.CoreHypervisorUpdates)
		fmt.Print(t)
	}
}

// csvWriter emits one figure's data series.
type csvWriter struct {
	f *os.File
	w *bufio.Writer
}

func newCSVWriter(dir, name string, columns ...string) (*csvWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	for i, c := range columns {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(c)
	}
	w.WriteByte('\n')
	return &csvWriter{f: f, w: w}, nil
}

func (c *csvWriter) row(vals ...interface{}) {
	for i, v := range vals {
		if i > 0 {
			c.w.WriteByte(',')
		}
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(c.w, "%.6g", x)
		default:
			fmt.Fprintf(c.w, "%v", x)
		}
	}
	c.w.WriteByte('\n')
}

func (c *csvWriter) close() error {
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.f.Close()
}

func parseInts(s string) ([]int, error) {
	fields := strings.Split(s, ",")
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("field %q is not a non-negative integer", f)
		}
		out = append(out, n)
	}
	return out, nil
}
