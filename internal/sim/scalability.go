// Package sim is the experiment harness for the paper's §5.1
// scalability evaluation. It builds a fabric, places tenants, generates
// a group workload, runs the controller's encoding for every group
// against shared s-rule capacity, and measures:
//
//   - the number of groups covered without default p-rules, split into
//     p-rules-only and p+s-rules (Figures 4 and 5, left panels);
//   - the distribution of s-rules installed per leaf and spine switch,
//     with the Li et al. baseline (center panels);
//   - the traffic overhead relative to ideal multicast, by forwarding
//     one packet per group through the emulated data plane, with
//     unicast and overlay baselines (right panels);
//   - per-sender header-size statistics (§5.1.2's 114-byte average /
//     325-byte cap).
//
// The harness streams: per-group state is discarded after measurement,
// and the batch encoder holds at most 2·workers chunks of encodings
// ahead of it, so a paper-scale run (27,648 hosts, one million groups,
// R=0) peaks at about 1.05 GB RSS.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"elmo/internal/baselines"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/metrics"
	"elmo/internal/placement"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// ScalabilityConfig assembles a full §5.1 experiment.
type ScalabilityConfig struct {
	Topology   topology.Config
	Placement  placement.Config
	Groups     groupgen.Config
	Controller controller.Config
	// PacketSizes are the inner-frame sizes to measure traffic
	// overhead for (paper: 64 and 1500).
	PacketSizes []int
	// BaselineSampleEvery measures unicast/overlay baselines on every
	// Nth group (they are ratios; sampling keeps full-scale runs
	// fast). Zero disables baseline measurement.
	BaselineSampleEvery int
	// Seed drives sender selection.
	Seed int64
	// Workers shards the per-group encoding phase across that many
	// goroutines (controller.EncodeBatch's workers: <=0 uses
	// GOMAXPROCS); measurement and admission stay serialized in group
	// order under the occupancy admission mutex, so results are
	// identical for every worker count.
	Workers int
	// Metrics, when non-nil, attaches dataplane/fabric telemetry to the
	// measurement fabric and publishes live run progress, so a /metrics
	// scrape mid-run sees the experiment move.
	Metrics *telemetry.Registry
	// Observer, when non-nil, receives per-link byte accounting and
	// per-send samples from the measurement fabric (the ops plane's
	// feed: link utilization, heavy hitters, SLO counters).
	Observer dataplane.FlowObserver
}

// ScalabilityResult aggregates one run's measurements.
type ScalabilityResult struct {
	Config ScalabilityConfig

	TotalGroups int
	// GroupsPRulesOnly are covered exactly with p-rules alone at both
	// downstream layers.
	GroupsPRulesOnly int
	// LeafPRulesOnly counts groups whose LEAF layer is covered by
	// p-rules alone — the paper's Figure 4/5 left-panel metric ("there
	// are 30 p-rules for the leaf layer — just enough header capacity
	// to be covered only with p-rules"); leaf rules dominate the
	// header, so the paper tracks this layer.
	LeafPRulesOnly int
	// GroupsWithSRules are covered exactly using s-rules too.
	GroupsWithSRules int
	// GroupsWithDefault needed a default p-rule (not exactly covered).
	GroupsWithDefault int

	// LeafSRules / SpineSRules are the final per-switch occupancy
	// distributions.
	LeafSRules  metrics.Samples
	SpineSRules metrics.Samples
	// LiLeafEntries / LiSpineEntries / LiCoreEntries are the Li et al.
	// baseline per-switch group-table entries.
	LiLeafEntries  metrics.Samples
	LiSpineEntries metrics.Samples
	LiCoreEntries  metrics.Samples

	// HeaderBytes summarizes assembled sender-header sizes.
	HeaderBytes metrics.Summary

	// TrafficOverhead[n] is Σelmo/Σideal − 1 for inner size n;
	// UnicastOverhead and OverlayOverhead are sampled analogues.
	TrafficOverhead map[int]float64
	UnicastOverhead map[int]float64
	OverlayOverhead map[int]float64

	// DeliveryFailures counts groups whose forwarding check missed a
	// member (must be zero; non-zero indicates a bug).
	DeliveryFailures int
}

// RunScalability executes the experiment.
func RunScalability(cfg ScalabilityConfig) (*ScalabilityResult, error) {
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	dep, err := placement.Place(topo, cfg.Placement)
	if err != nil {
		return nil, err
	}
	groups, err := groupgen.Generate(dep, cfg.Groups)
	if err != nil {
		return nil, err
	}
	res := &ScalabilityResult{
		Config:          cfg,
		TotalGroups:     len(groups),
		TrafficOverhead: make(map[int]float64),
		UnicastOverhead: make(map[int]float64),
		OverlayOverhead: make(map[int]float64),
	}

	// Shared s-rule occupancy across all groups (streaming capacity),
	// in the controller's atomic counters so the encoding phase can run
	// on concurrent workers.
	occ := controller.NewOccupancy(topo, cfg.Controller.SRuleCapacity)

	fab := fabric.New(topo, cfg.Controller.SRuleCapacity)
	li := baselines.NewLiState(topo)
	rng := rand.New(rand.NewSource(cfg.Seed))

	var progress *telemetry.Gauge
	if cfg.Metrics != nil {
		fab.SetMetrics(fabric.NewMetrics(cfg.Metrics))
		progress = cfg.Metrics.Gauge("elmo_sim_groups_measured",
			"Groups measured so far in the scalability run.")
	}
	if cfg.Observer != nil {
		fab.SetObserver(cfg.Observer)
	}

	elmoBytes := make(map[int]float64, len(cfg.PacketSizes))
	idealBytes := make(map[int]float64, len(cfg.PacketSizes))
	uniBytes := make(map[int]float64, len(cfg.PacketSizes))
	ovlBytes := make(map[int]float64, len(cfg.PacketSizes))
	sampleIdeal := make(map[int]float64, len(cfg.PacketSizes))

	payloads := make(map[int][]byte, len(cfg.PacketSizes))
	for _, n := range cfg.PacketSizes {
		payloads[n] = make([]byte, n)
	}

	// The encoder phase fans out across workers; this measurement
	// callback runs serially in group order (the batch committer), so
	// the rng draw sequence and all aggregates match a serial run.
	var senderScratch controller.SenderScratch
	var streamBuf []byte
	var members []controller.Member // the group's hosts, ascending as groupgen lists them, each sending and receiving
	var tree controller.Tree
	measure := func(gi int, enc *controller.Encoding) error {
		g := &groups[gi]
		members = members[:0]
		for _, h := range g.Hosts {
			members = append(members, controller.Member{Host: h, Role: controller.RoleBoth})
		}
		tree.Read(topo, members)
		switch {
		case !enc.Exact():
			res.GroupsWithDefault++
		case enc.UsesSRules():
			res.GroupsWithSRules++
		default:
			res.GroupsPRulesOnly++
		}
		if len(enc.LeafSRules) == 0 && !enc.DLeafDefault {
			res.LeafPRulesOnly++
		}
		li.InstallGroup(g.ID, g.Hosts)

		// Traffic measurement: one packet from a random member through
		// the real data plane.
		sender := g.Hosts[rng.Intn(len(g.Hosts))]
		stream, err := controller.AppendSenderStream(streamBuf[:0], &senderScratch, topo, cfg.Controller, enc, &tree, sender, nil)
		if err != nil {
			return fmt.Errorf("sim: header for group %d: %w", g.ID, err)
		}
		streamBuf = stream
		res.HeaderBytes.Add(float64(len(stream)))

		addr := dataplane.GroupAddr{VNI: uint32(g.Tenant), Group: g.ID}
		if err := fab.InstallEncodingAt(0, addr, enc, members); err != nil {
			return err
		}
		if err := fab.Hypervisors[sender].InstallSenderFlowAt(0, addr, stream); err != nil {
			return err
		}
		sampleBaselines := cfg.BaselineSampleEvery > 0 && gi%cfg.BaselineSampleEvery == 0
		for _, n := range cfg.PacketSizes {
			d, err := fab.Send(sender, addr, payloads[n])
			if err != nil {
				return fmt.Errorf("sim: send group %d: %w", g.ID, err)
			}
			if len(d.Received) != countOthers(g.Hosts, sender) || d.Lost != 0 {
				res.DeliveryFailures++
			}
			ideal := fabric.IdealBytes(topo, sender, g.Hosts, n)
			elmoBytes[n] += float64(d.LinkBytes)
			idealBytes[n] += float64(ideal)
			if sampleBaselines {
				du, err := fab.SendUnicast(sender, g.Hosts, payloads[n])
				if err != nil {
					return err
				}
				do, _, err := fab.SendOverlay(sender, g.Hosts, payloads[n])
				if err != nil {
					return err
				}
				uniBytes[n] += float64(du.LinkBytes)
				ovlBytes[n] += float64(do.LinkBytes)
				sampleIdeal[n] += float64(ideal)
			}
		}
		if err := fab.Hypervisors[sender].RemoveSenderFlowAt(0, addr); err != nil {
			return err
		}
		if err := fab.UninstallEncodingAt(0, addr, enc, members); err != nil {
			return err
		}
		progress.Add(1)
		return nil
	}

	receivers := func(gi int) []topology.HostID { return groups[gi].Hosts }
	if _, err := controller.EncodeBatch(topo, cfg.Controller, occ,
		len(groups), cfg.Workers, receivers, measure); err != nil {
		var be *controller.BatchError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("sim: group %d: %w", groups[be.Index].ID, be.Err)
		}
		return nil, fmt.Errorf("sim: %w", err)
	}

	for _, n := range cfg.PacketSizes {
		if idealBytes[n] > 0 {
			res.TrafficOverhead[n] = elmoBytes[n]/idealBytes[n] - 1
		}
		if sampleIdeal[n] > 0 {
			res.UnicastOverhead[n] = uniBytes[n]/sampleIdeal[n] - 1
			res.OverlayOverhead[n] = ovlBytes[n]/sampleIdeal[n] - 1
		}
	}
	for l := 0; l < topo.NumLeaves(); l++ {
		res.LeafSRules.Add(float64(occ.LeafCount(topology.LeafID(l))))
	}
	for s := 0; s < topo.NumSpines(); s++ {
		res.SpineSRules.Add(float64(occ.SpineCount(topology.SpineID(s))))
	}
	for _, v := range li.LeafEntries {
		res.LiLeafEntries.Add(float64(v))
	}
	for _, v := range li.SpineEntries {
		res.LiSpineEntries.Add(float64(v))
	}
	for _, v := range li.CoreEntries {
		res.LiCoreEntries.Add(float64(v))
	}
	return res, nil
}

func countOthers(hosts []topology.HostID, sender topology.HostID) int {
	n := 0
	for _, h := range hosts {
		if h != sender {
			n++
		}
	}
	return n
}

// CoveredFraction returns the fraction of groups encodable without a
// default p-rule — the Figure 4/5 left-panel metric.
func (r *ScalabilityResult) CoveredFraction() float64 {
	if r.TotalGroups == 0 {
		return 0
	}
	return float64(r.GroupsPRulesOnly+r.GroupsWithSRules) / float64(r.TotalGroups)
}
