// Package churn implements the control-plane scalability experiments of
// paper §5.1.3: group-membership dynamics (Table 2) and network
// failures.
//
// Members are randomly assigned sender / receiver / both roles.
// Join/leave events are generated with per-group frequency proportional
// to group size; a join adds a random non-member VM of the owning
// tenant, a leave removes a random member. The controller's update
// counters then yield per-switch update rates, compared against the Li
// et al. baseline driven by the same event stream.
package churn

import (
	"fmt"
	"math/rand"

	"elmo/internal/baselines"
	"elmo/internal/controller"
	"elmo/internal/groupgen"
	"elmo/internal/metrics"
	"elmo/internal/placement"
	"elmo/internal/topology"
)

// Config parameterizes a churn run.
type Config struct {
	// Events is the total number of join/leave events (paper: 1M over
	// 1M groups; scale both together).
	Events int
	// EventsPerSecond converts counts to rates (paper: 1,000).
	EventsPerSecond float64
	// Seed drives role assignment and event sampling.
	Seed int64
	// Metrics, when non-nil, publishes live event counters and the final
	// weight drift to a telemetry registry during the run.
	Metrics *Metrics
}

// Result holds per-switch update rates (updates per second).
type Result struct {
	Duration float64 // seconds of simulated churn

	Hypervisor metrics.Samples
	Leaf       metrics.Samples
	Spine      metrics.Samples
	CoreRate   float64 // always 0 for Elmo; kept to document the claim

	LiLeaf  metrics.Samples
	LiSpine metrics.Samples
	LiCore  metrics.Samples

	EventsApplied int
	EventsSkipped int

	// WeightDrift is the largest divergence observed at the end of the
	// run between a group's sampling weight and its actual membership
	// size — zero when the live-weight invariant holds (regression
	// guard for the stale-weight bug).
	WeightDrift int
}

// roleFor deterministically assigns one of the three roles (§5.1.3a:
// "we randomly assign one of these three types to each member").
func roleFor(rng *rand.Rand) controller.Role {
	switch rng.Intn(3) {
	case 0:
		return controller.RoleSender
	case 1:
		return controller.RoleReceiver
	default:
		return controller.RoleBoth
	}
}

// Specs draws every group's member roles from rng, group by group and
// host by host in order. A group whose receiver set would be empty gets
// its first host as a forced receiver, so trees exist.
func Specs(groups []groupgen.Group, rng *rand.Rand) []controller.BatchSpec {
	specs := make([]controller.BatchSpec, len(groups))
	for gi := range groups {
		g := &groups[gi]
		members := make(map[topology.HostID]controller.Role, len(g.Hosts))
		hasReceiver := false
		for _, h := range g.Hosts {
			r := roleFor(rng)
			members[h] = r
			if r.CanReceive() {
				hasReceiver = true
			}
		}
		if !hasReceiver {
			members[g.Hosts[0]] = controller.RoleBoth
		}
		specs[gi] = controller.BatchSpec{Key: key(g), Members: members}
	}
	return specs
}

// Setup creates all groups in the controller with the roles Specs
// draws. Role assignment is serial (one rng); the installs go through
// the controller's parallel bulk pipeline, whose result is
// byte-identical to serial CreateGroup calls in group order.
func Setup(ctrl *controller.Controller, dep *placement.Deployment, groups []groupgen.Group, rng *rand.Rand) error {
	_, err := ctrl.InstallBatch(Specs(groups, rng), controller.BatchOptions{})
	return err
}

func key(g *groupgen.Group) controller.GroupKey {
	return controller.GroupKey{Tenant: uint32(g.Tenant), Group: g.ID}
}

// Run generates cfg.Events join/leave events against the controller
// (already Setup) and measures update rates. The Li et al. baseline is
// charged from the same event stream.
//
// Events are generated against the controller's own member lists (with
// sampling weights tracked live in a Fenwick tree, so per-group event
// frequency stays proportional to the *current* group size) and applied
// one at a time, in generation order: each event reads the members the
// previous one left, and a failed op aborts the run. Run reads those
// lists without the controller's lock, so it must be the controller's
// only writer while it runs.
func Run(ctrl *controller.Controller, dep *placement.Deployment, groups []groupgen.Group, cfg Config) (*Result, error) {
	if cfg.Events <= 0 || cfg.EventsPerSecond <= 0 {
		return nil, fmt.Errorf("churn: Events and EventsPerSecond must be positive")
	}
	topo := ctrl.Topology()
	rng := rand.New(rand.NewSource(cfg.Seed))
	li := baselines.NewLiState(topo)
	ctrl.ResetStats()

	// Each group's controller state + live size-proportional sampling
	// weights (largest groups churn most — and keep churning most as
	// they grow).
	states := make([]*controller.GroupState, len(groups))
	weights := make([]int, len(groups))
	for i := range groups {
		if states[i] = ctrl.Group(key(&groups[i])); states[i] == nil {
			return nil, fmt.Errorf("churn: group %d missing from controller", groups[i].ID)
		}
		weights[i] = len(states[i].Members)
	}
	fw := newFenwick(weights)

	res := &Result{Duration: float64(cfg.Events) / cfg.EventsPerSecond}
	m := cfg.Metrics
	if m == nil {
		m = &Metrics{}
	}
	m.rate.Set(cfg.EventsPerSecond)

	for e := 0; e < cfg.Events; e++ {
		gi := fw.find(rng.Intn(fw.total()))
		g := &groups[gi]
		st := states[gi]
		join := rng.Intn(2) == 0
		if len(st.Members) <= 1 {
			join = true
		}
		var err error
		if join {
			host, ok := pickNonMember(rng, dep, g, st)
			if !ok {
				res.EventsSkipped++
				m.skipped.Inc()
				continue
			}
			role := roleFor(rng)
			fw.add(gi, 1)
			err = ctrl.Join(key(g), host, role)
		} else {
			// The leaving member leaves with its full role.
			mem := st.Members[rng.Intn(len(st.Members))]
			fw.add(gi, -1)
			err = ctrl.Leave(key(g), mem.Host, mem.Role)
		}
		if err != nil {
			return nil, fmt.Errorf("churn: event %d: %w", res.EventsApplied, err)
		}
		m.applied.Inc()
		res.EventsApplied++
		li.ApplyChurnEvent(g.ID, st.Receivers())
	}
	for i, st := range states {
		if d := fw.weight(i) - len(st.Members); d > res.WeightDrift {
			res.WeightDrift = d
		} else if -d > res.WeightDrift {
			res.WeightDrift = -d
		}
	}
	m.drift.Set(float64(res.WeightDrift))

	// Convert counts to per-switch rates over all switches of each
	// class (absent switches contribute zero).
	stats := ctrl.Stats()
	for h := 0; h < topo.NumHosts(); h++ {
		res.Hypervisor.Add(float64(stats.Hypervisor[topology.HostID(h)]) / res.Duration)
	}
	for l := 0; l < topo.NumLeaves(); l++ {
		res.Leaf.Add(float64(stats.Leaf[topology.LeafID(l)]) / res.Duration)
	}
	for s := 0; s < topo.NumSpines(); s++ {
		res.Spine.Add(float64(stats.Spine[topology.SpineID(s)]) / res.Duration)
	}
	res.CoreRate = float64(stats.Core) / res.Duration
	for _, v := range li.LeafUpdates {
		res.LiLeaf.Add(float64(v) / res.Duration)
	}
	for _, v := range li.SpineUpdates {
		res.LiSpine.Add(float64(v) / res.Duration)
	}
	for _, v := range li.CoreUpdates {
		res.LiCore.Add(float64(v) / res.Duration)
	}
	return res, nil
}

func pickNonMember(rng *rand.Rand, dep *placement.Deployment, g *groupgen.Group, st *controller.GroupState) (topology.HostID, bool) {
	tenant := &dep.Tenants[g.Tenant]
	for try := 0; try < 16; try++ {
		vm := tenant.VMs[rng.Intn(len(tenant.VMs))]
		if st.RoleOf(vm.Host) == 0 {
			return vm.Host, true
		}
	}
	return 0, false
}

// Table2 renders the churn result as the paper's Table 2.
func (r *Result) Table2() *metrics.Table {
	t := metrics.NewTable("Table 2: avg (max) switch updates per second",
		"switch", "Elmo avg", "Elmo max", "Li et al. avg", "Li et al. max")
	t.AddRow("hypervisor", r.Hypervisor.Mean(), r.Hypervisor.Max(), "NE", "NE")
	t.AddRow("leaf", r.Leaf.Mean(), r.Leaf.Max(), r.LiLeaf.Mean(), r.LiLeaf.Max())
	t.AddRow("spine", r.Spine.Mean(), r.Spine.Max(), r.LiSpine.Mean(), r.LiSpine.Max())
	t.AddRow("core", r.CoreRate, r.CoreRate, r.LiCore.Mean(), r.LiCore.Max())
	return t
}

// FailureResult summarizes the §5.1.3b failure experiment.
type FailureResult struct {
	// SpineImpactedFrac / CoreImpactedFrac are the fractions of groups
	// impacted by a single spine / core failure (paper: up to 12.3%
	// and 25.8%).
	SpineImpactedFrac float64
	CoreImpactedFrac  float64
	// SpineHypervisorUpdates / CoreHypervisorUpdates count hypervisor
	// updates per failure event (paper: avg 176.9 / 674.9 at 1M
	// groups).
	SpineHypervisorUpdates int
	CoreHypervisorUpdates  int
}

// RunFailures fails one spine and one core (chosen by seed), measuring
// group impact and hypervisor update counts, repairing the fabric
// between trials.
func RunFailures(ctrl *controller.Controller, seed int64) *FailureResult {
	topo := ctrl.Topology()
	rng := rand.New(rand.NewSource(seed))
	res := &FailureResult{}
	total := ctrl.NumGroups()
	if total == 0 {
		return res
	}

	spine := topology.SpineID(rng.Intn(topo.NumSpines()))
	ctrl.ResetStats()
	impacted := ctrl.FailSpine(spine)
	res.SpineImpactedFrac = float64(impacted) / float64(total)
	res.SpineHypervisorUpdates = totalHV(ctrl)
	ctrl.RepairSpine(spine)

	core := topology.CoreID(rng.Intn(topo.NumCores()))
	ctrl.ResetStats()
	impacted = ctrl.FailCore(core)
	res.CoreImpactedFrac = float64(impacted) / float64(total)
	res.CoreHypervisorUpdates = totalHV(ctrl)
	ctrl.RepairCore(core)
	ctrl.ResetStats()
	return res
}

func totalHV(ctrl *controller.Controller) int {
	n := 0
	for _, v := range ctrl.Stats().Hypervisor {
		n += v
	}
	return n
}
