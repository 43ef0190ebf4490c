// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding experiment at
// a laptop-friendly scale and prints the rows/series the paper reports
// (once); run cmd/elmo-sim and cmd/elmo-apps with paper-scale flags for
// the full 27,648-host / 1M-group configuration.
//
//	go test -bench=. -benchmem
package elmo

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"elmo/internal/apps"
	"elmo/internal/baselines"
	"elmo/internal/churn"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/header"
	"elmo/internal/metrics"
	"elmo/internal/placement"
	"elmo/internal/sim"
	"elmo/internal/topology"
)

// small indirections so the popping ablation reads clearly.
func headerLayout(t *topology.Topology) header.Layout { return header.LayoutFor(t) }

func encodeHeader(l header.Layout, h *header.Header) ([]byte, error) {
	return header.Encode(l, h)
}

// benchTopo is the scaled-down evaluation fabric: 4 pods × 2 spines ×
// 8 leaves × 8 hosts = 256 hosts.
func benchTopo() topology.Config {
	return topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 8, CoresPerPlane: 2}
}

func benchScalability(p, r, groups, srules int, dist groupgen.Distribution, leafLimit int) sim.ScalabilityConfig {
	ctrlCfg := controller.PaperConfig(r)
	ctrlCfg.SRuleCapacity = srules
	if leafLimit > 0 {
		ctrlCfg.LeafRuleLimit = leafLimit
	}
	return sim.ScalabilityConfig{
		Topology: benchTopo(),
		Placement: placement.Config{
			Tenants: 80, VMsPerHost: 20, MinVMs: 5, MaxVMs: 24, MeanVMs: 16, P: p, Seed: 11,
		},
		Groups:              groupgen.Config{TotalGroups: groups, MinSize: 5, Dist: dist, Seed: 13},
		Controller:          ctrlCfg,
		PacketSizes:         []int{64, 1500},
		BaselineSampleEvery: 19,
		Seed:                17,
	}
}

var printOnce sync.Map

func printTable(name string, t fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", t)
	}
}

// runFigure45 runs the Figure 4/5 sweep (three panels) at placement P.
func runFigure45(b *testing.B, name string, p int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable(name,
			"R", "p-rules only", "leaf p-only", "p+s-rules", "default", "leaf s-rules mean",
			"leaf s-rules max", "Li leaf mean", "ovh 64B", "ovh 1500B", "unicast ovh", "overlay ovh")
		var last *sim.ScalabilityResult
		for _, r := range []int{0, 6, 12} {
			res, err := sim.RunScalability(benchScalability(p, r, 1500, 100, groupgen.WVE, 0))
			if err != nil {
				b.Fatal(err)
			}
			if res.DeliveryFailures > 0 {
				b.Fatalf("R=%d: %d delivery failures", r, res.DeliveryFailures)
			}
			t.AddRow(r, res.GroupsPRulesOnly, res.LeafPRulesOnly, res.GroupsWithSRules, res.GroupsWithDefault,
				res.LeafSRules.Mean(), res.LeafSRules.Max(), res.LiLeafEntries.Mean(),
				res.TrafficOverhead[64], res.TrafficOverhead[1500],
				res.UnicastOverhead[1500], res.OverlayOverhead[1500])
			last = res
		}
		if i == 0 {
			printTable(name, t)
			b.ReportMetric(last.CoveredFraction(), "covered-frac-R12")
			b.ReportMetric(last.HeaderBytes.Mean(), "hdr-bytes-mean")
		}
	}
}

// BenchmarkFigure4_PlacementP12 regenerates Figure 4: clustered
// placement (≤12 VMs of a tenant per rack), WVE sizes, three panels
// over R ∈ {0, 6, 12}.
func BenchmarkFigure4_PlacementP12(b *testing.B) {
	runFigure45(b, "Figure 4 (P=12, WVE)", 12)
}

// BenchmarkFigure5_PlacementP1 regenerates Figure 5: dispersed
// placement (one VM per rack).
func BenchmarkFigure5_PlacementP1(b *testing.B) {
	runFigure45(b, "Figure 5 (P=1, WVE)", 1)
}

// BenchmarkSensitivity_Uniform regenerates the §5.1.2 group-size
// sensitivity study: Uniform sizes cover fewer groups with p-rules
// than WVE at the same R.
func BenchmarkSensitivity_Uniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Sensitivity: Uniform group sizes (P=1)",
			"R", "p-rules only", "p+s-rules", "default", "ovh 1500B")
		for _, r := range []int{0, 12} {
			res, err := sim.RunScalability(benchScalability(1, r, 1500, 100, groupgen.Uniform, 0))
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(r, res.GroupsPRulesOnly, res.GroupsWithSRules, res.GroupsWithDefault,
				res.TrafficOverhead[1500])
		}
		printTable("uniform", t)
	}
}

// BenchmarkSensitivity_SmallHeader regenerates the §5.1.2 reduced
// header study: capping the leaf section at 10 p-rules with scarce
// s-rule capacity inflates traffic overhead.
func BenchmarkSensitivity_SmallHeader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Sensitivity: 10 leaf p-rules, reduced s-rule capacity (P=1, R=12)",
			"config", "p-rules only", "default", "ovh 1500B")
		full, err := sim.RunScalability(benchScalability(1, 12, 1500, 100, groupgen.WVE, 0))
		if err != nil {
			b.Fatal(err)
		}
		small, err := sim.RunScalability(benchScalability(1, 12, 1500, 4, groupgen.WVE, 10))
		if err != nil {
			b.Fatal(err)
		}
		t.AddRow("30 leaf p-rules, Fmax=100", full.GroupsPRulesOnly, full.GroupsWithDefault, full.TrafficOverhead[1500])
		t.AddRow("10 leaf p-rules, Fmax=4", small.GroupsPRulesOnly, small.GroupsWithDefault, small.TrafficOverhead[1500])
		printTable("smallheader", t)
		if small.TrafficOverhead[1500] < full.TrafficOverhead[1500] {
			b.Fatalf("reduced header should inflate overhead: %.3f vs %.3f",
				small.TrafficOverhead[1500], full.TrafficOverhead[1500])
		}
	}
}

// BenchmarkTable2_ChurnUpdates regenerates Table 2: per-switch update
// rates under membership churn, Elmo vs Li et al.
func BenchmarkTable2_ChurnUpdates(b *testing.B) {
	topo := topology.MustNew(benchTopo())
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 60, VMsPerHost: 20, MinVMs: 5, MaxVMs: 24, MeanVMs: 16, P: 1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	groups, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: 400, MinSize: 5, Dist: groupgen.WVE, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := controller.New(topo, controller.PaperConfig(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := churn.Setup(ctrl, dep, groups, rand.New(rand.NewSource(7))); err != nil {
			b.Fatal(err)
		}
		res, err := churn.Run(ctrl, dep, groups, churn.Config{Events: 2000, EventsPerSecond: 1000, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable("table2", res.Table2())
			b.ReportMetric(res.Hypervisor.Mean(), "hv-upd/s")
			b.ReportMetric(res.Leaf.Mean(), "leaf-upd/s")
			b.ReportMetric(res.CoreRate, "core-upd/s")
		}
	}
}

// BenchmarkFailureRecovery regenerates §5.1.3b: groups impacted and
// hypervisor updates for single spine and core failures.
func BenchmarkFailureRecovery(b *testing.B) {
	topo := topology.MustNew(benchTopo())
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 60, VMsPerHost: 20, MinVMs: 5, MaxVMs: 24, MeanVMs: 16, P: 1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	groups, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: 400, MinSize: 5, Dist: groupgen.WVE, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := controller.New(topo, controller.PaperConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	if err := churn.Setup(ctrl, dep, groups, rand.New(rand.NewSource(7))); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := churn.RunFailures(ctrl, int64(42+i))
		if i == 0 {
			t := metrics.NewTable("Failure impact (§5.1.3b)",
				"failure", "groups impacted %", "hypervisor updates")
			t.AddRow("one spine", 100*res.SpineImpactedFrac, res.SpineHypervisorUpdates)
			t.AddRow("one core", 100*res.CoreImpactedFrac, res.CoreHypervisorUpdates)
			printTable("failures", t)
			b.ReportMetric(100*res.SpineImpactedFrac, "spine-impact-%")
			b.ReportMetric(100*res.CoreImpactedFrac, "core-impact-%")
		}
	}
}

// BenchmarkControllerRuleGeneration regenerates the §5.1.3 claim that
// p-/s-rule computation for one group takes well under a millisecond
// (the paper's Python implementation: 0.20 ms ± 0.45 ms).
func BenchmarkControllerRuleGeneration(b *testing.B) {
	topo := topology.MustNew(topology.FacebookFabric())
	cfg := controller.PaperConfig(6)
	rng := rand.New(rand.NewSource(21))
	receivers := make([]topology.HostID, 60)
	seen := map[topology.HostID]bool{}
	for i := range receivers {
		for {
			h := topology.HostID(rng.Intn(topo.NumHosts()))
			if !seen[h] {
				seen[h] = true
				receivers[i] = h
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := controller.ComputeEncoding(topo, cfg, controller.NoCapacity(), receivers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6_PubSub regenerates Figure 6: pub-sub throughput and
// publisher CPU vs subscriber count, unicast vs Elmo.
func BenchmarkFigure6_PubSub(b *testing.B) {
	topo := topology.MustNew(topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 12, CoresPerPlane: 2})
	for i := 0; i < b.N; i++ {
		cfg := controller.PaperConfig(6)
		ctrl, err := controller.New(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fab := fabric.New(topo, cfg.SRuleCapacity)
		fab.SetFailures(ctrl.Failures())
		subs := make([]topology.HostID, 256)
		for j := range subs {
			subs[j] = topology.HostID(j + 1)
		}
		points, err := apps.MeasurePubSub(ctrl, fab, 0, subs,
			[]int{1, 4, 16, 64, 256}, 100, 400)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := metrics.NewTable("Figure 6: pub-sub, 100-byte messages",
				"subscribers", "transport", "per-msg", "throughput msg/s", "CPU %")
			for _, p := range points {
				t.AddRow(p.Subscribers, p.Transport.String(), p.PerMessage.String(), p.Throughput, p.CPUPercent)
			}
			printTable("figure6", t)
			last := points[len(points)-1] // unicast @ 256
			b.ReportMetric(last.CPUPercent, "unicast-cpu-256subs-%")
		}
	}
}

// BenchmarkSFlowTelemetry regenerates §5.2.2: agent egress bandwidth
// vs collector count.
func BenchmarkSFlowTelemetry(b *testing.B) {
	topo := topology.MustNew(topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 12, CoresPerPlane: 2})
	for i := 0; i < b.N; i++ {
		cfg := controller.PaperConfig(6)
		ctrl, err := controller.New(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fab := fabric.New(topo, cfg.SRuleCapacity)
		fab.SetFailures(ctrl.Failures())
		collectors := make([]topology.HostID, 64)
		for j := range collectors {
			collectors[j] = topology.HostID(j + 1)
		}
		points, err := apps.MeasureTelemetry(ctrl, fab, 0, collectors, []int{1, 4, 16, 64}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := metrics.NewTable("sFlow telemetry at 8 reports/s",
				"collectors", "transport", "egress Kbps")
			for _, p := range points {
				t.AddRow(p.Collectors, p.Transport.String(), p.EgressKbps)
			}
			printTable("sflow", t)
		}
	}
}

// BenchmarkFigure7_HypervisorEncap regenerates Figure 7: packets/sec
// and Gbps vs number of p-rules at the hypervisor, with the §4.2
// single-write vs per-rule-write ablation.
func BenchmarkFigure7_HypervisorEncap(b *testing.B) {
	topo := topology.MustNew(topology.FacebookFabric())
	for i := 0; i < b.N; i++ {
		points, err := apps.MeasureEncap(topo, []int{0, 10, 20, 30}, 1500-50, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := metrics.NewTable("Figure 7: hypervisor encapsulation, 1500-byte frames",
				"p-rules", "mode", "Mpps", "Gbps", "pkt bytes")
			for _, p := range points {
				t.AddRow(p.PRules, p.Mode.String(), p.Mpps, p.Gbps, p.Bytes)
			}
			printTable("figure7", t)
			for _, p := range points {
				if p.PRules == 30 && p.Mode == apps.SingleWrite {
					b.ReportMetric(p.Mpps, "Mpps-30rules")
					b.ReportMetric(p.Gbps, "Gbps-30rules")
				}
			}
		}
	}
}

// BenchmarkTable3_SchemeComparison regenerates Table 3: the analytic
// scheme comparison at a 5,000-entry group table and 325-byte header.
func BenchmarkTable3_SchemeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := baselines.AllLimits(325, 5000)
		if i == 0 {
			t := metrics.NewTable("Table 3: scheme comparison (5K group table, 325 B header)",
				"scheme", "#groups", "group-size limit", "network-size limit",
				"group-table", "flow-table", "line-rate", "addr-isolation", "multipath",
				"control ovh", "traffic ovh", "end-host repl", "unorthodox hw")
			for _, r := range rows {
				t.AddRow(r.Scheme, orUnlimited(r.MaxGroups), orUnlimited(r.MaxGroupSize),
					orUnlimited(r.MaxHosts), r.GroupTableUsage, r.FlowTableUsage,
					yn(r.LineRate), yn(r.AddressIsolation), r.Multipath,
					r.ControlOverhead, r.TrafficOverhead, yn(r.EndHostRepl), yn(r.Unorthodox))
			}
			printTable("table3", t)
		}
	}
}

// BenchmarkAblation_NoSRules quantifies D5: with group tables disabled
// (Fmax = 0), overflow groups fall onto default p-rules, trading
// coverage and traffic for zero network state.
func BenchmarkAblation_NoSRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := sim.RunScalability(benchScalability(1, 0, 1500, 100, groupgen.WVE, 0))
		if err != nil {
			b.Fatal(err)
		}
		without, err := sim.RunScalability(benchScalability(1, 0, 1500, 0, groupgen.WVE, 0))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := metrics.NewTable("Ablation: s-rules disabled (D5), P=1, R=0",
				"config", "exact coverage", "default groups", "ovh 1500B")
			t.AddRow("s-rules available", with.CoveredFraction(), with.GroupsWithDefault, with.TrafficOverhead[1500])
			t.AddRow("Fmax = 0", without.CoveredFraction(), without.GroupsWithDefault, without.TrafficOverhead[1500])
			printTable("ablation-nosrules", t)
			if without.GroupsWithDefault <= with.GroupsWithDefault {
				b.Fatal("disabling s-rules should force default rules")
			}
		}
	}
}

// BenchmarkAblation_DesignDecisions regenerates the §3.1 size
// narrative on the Figure 3 example: per-switch rules → logical
// topology → bitmap sharing (paper: 161 → 83 → 62 bits).
func BenchmarkAblation_DesignDecisions(b *testing.B) {
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(2)
	cfg.LeafRuleLimit = 2
	receivers := []topology.HostID{0, 1, 40, 48, 49, 63} // Fig. 3 group
	for i := 0; i < b.N; i++ {
		sizes, err := controller.Ablation(topo, cfg, receivers, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := metrics.NewTable("Ablation: §3.1 design decisions, Fig. 3 example (bits)",
				"stage", "this repo", "paper")
			t.AddRow("D1 per-switch rules", sizes.D1Bits, 161)
			t.AddRow("D2 logical topology", sizes.D2Bits, 83)
			t.AddRow("D3 bitmap sharing", sizes.D3Bits, 62)
			printTable("ablation-design", t)
			b.ReportMetric(float64(sizes.D1Bits), "D1-bits")
			b.ReportMetric(float64(sizes.D3Bits), "D3-bits")
		}
	}
}

// BenchmarkAblation_HeaderPopping quantifies D2d: the traffic saved by
// popping consumed sections per hop versus carrying the full source
// header on every link.
func BenchmarkAblation_HeaderPopping(b *testing.B) {
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fab := fabric.New(topo, cfg.SRuleCapacity)
	fab.SetFailures(ctrl.Failures())
	key := controller.GroupKey{Tenant: 1, Group: 1}
	hosts := []topology.HostID{0, 1, 40, 48, 49, 63}
	members := make(map[topology.HostID]controller.Role)
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		b.Fatal(err)
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		b.Fatal(err)
	}
	hdr, err := ctrl.HeaderFor(key, 0)
	if err != nil {
		b.Fatal(err)
	}
	stream0 := 0
	{
		l := headerLayout(topo)
		wire, err := encodeHeader(l, hdr)
		if err != nil {
			b.Fatal(err)
		}
		stream0 = len(wire)
	}
	inner := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fab.Send(0, dataplane.GroupAddr{VNI: 1, Group: 1}, inner)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			noPop := controller.NoPopBytes(d.Links, len(inner), stream0)
			t := metrics.NewTable("Ablation: per-hop popping (D2d), Fig. 3 group, 100-byte payload",
				"variant", "link bytes", "vs popping")
			t.AddRow("with popping (Elmo)", d.LinkBytes, 1.0)
			t.AddRow("header never popped", noPop, float64(noPop)/float64(d.LinkBytes))
			printTable("ablation-pop", t)
			if noPop <= d.LinkBytes {
				b.Fatalf("no-pop %d should exceed popped %d", noPop, d.LinkBytes)
			}
		}
	}
}

func orUnlimited(v int) string {
	if v == 0 {
		return "none"
	}
	if v >= 1000 {
		return fmt.Sprintf("%dK", v/1000)
	}
	return fmt.Sprintf("%d", v)
}

func yn(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// BenchmarkControllerInstallBatch measures the parallel bulk-install
// pipeline (§5.1.3 controller scale): groups/sec at 1 worker vs
// GOMAXPROCS workers, with the byte-identical-result guarantee checked
// separately by TestInstallBatchDeterministicAcrossWorkers. The gated
// end-to-end figure is the bulk-recover workload of BENCHMARK.json.
func BenchmarkControllerInstallBatch(b *testing.B) {
	topo := topology.MustNew(benchTopo())
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 60, VMsPerHost: 20, MinVMs: 5, MaxVMs: 24, MeanVMs: 16, P: 1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	groups, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: 2000, MinSize: 5, Dist: groupgen.WVE, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	specs := churn.Specs(groups, rand.New(rand.NewSource(7)))
	for _, workers := range []int{1, parallelWorkers()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var start time.Time
			for i := 0; i < b.N; i++ {
				ctrl, err := controller.New(topo, controller.PaperConfig(0))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					start = time.Now()
				}
				res, err := ctrl.InstallBatch(specs, controller.BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Installed != len(specs) {
					b.Fatalf("installed %d of %d", res.Installed, len(specs))
				}
			}
			b.ReportMetric(float64(b.N*len(specs))/time.Since(start).Seconds(), "groups/sec")
		})
	}
}

// BenchmarkChurnPipeline measures a churn run (generation plus the
// serial apply of every event to the controller), reporting wall-clock
// events/sec.
func BenchmarkChurnPipeline(b *testing.B) {
	topo := topology.MustNew(benchTopo())
	dep, err := placement.Place(topo, placement.Config{
		Tenants: 60, VMsPerHost: 20, MinVMs: 5, MaxVMs: 24, MeanVMs: 16, P: 1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	groups, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: 400, MinSize: 5, Dist: groupgen.WVE, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	var applied int
	var start time.Time
	for i := 0; i < b.N; i++ {
		ctrl, err := controller.New(topo, controller.PaperConfig(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := churn.Setup(ctrl, dep, groups, rand.New(rand.NewSource(7))); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			start = time.Now() // exclude the first Setup warm-up
		}
		res, err := churn.Run(ctrl, dep, groups, churn.Config{Events: 4000, EventsPerSecond: 1000, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		applied += res.EventsApplied
	}
	b.ReportMetric(float64(applied)/time.Since(start).Seconds(), "events/sec")
}

// parallelWorkers picks the concurrent worker count to benchmark:
// GOMAXPROCS, floored at 2 so the parallel code path is exercised even
// on a single-core runner (where no speedup can materialize).
func parallelWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 2
}
