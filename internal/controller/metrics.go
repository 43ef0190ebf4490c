package controller

import (
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// Metrics caches the controller's telemetry handles: membership
// operation counters and latency histograms, rollback/recompute
// counters, and batch-install accounting. Gauges (group count, s-rule
// occupancy vs Fmax, cumulative update charges) are function-backed —
// they read the controller's live state at scrape time instead of
// being pushed.
//
// Control-plane operations are not the dataplane hot path, so the
// latency probes call time.Now; counters remain single atomic adds.
// A controller always holds a bundle: the zero Metrics (every handle
// nil, and nil telemetry handles do nothing) until EnableMetrics.
type Metrics struct {
	opLatency struct {
		create, join, leave, install *telemetry.Histogram
	}
	ops struct {
		create, remove, join, leave *telemetry.Counter
	}
	rollbacks      *telemetry.Counter
	recomputes     *telemetry.Counter
	batchInstalled *telemetry.Counter
	batchRecompute *telemetry.Counter
	failureEvents  *telemetry.CounterVec
	impactedGroups *telemetry.Counter
}

func newControllerMetrics(reg *telemetry.Registry) *Metrics {
	lat := reg.HistogramVec("elmo_controller_op_duration_seconds",
		"Latency of committed control-plane operations.", telemetry.LatencyBuckets, "op")
	ops := reg.CounterVec("elmo_controller_ops_total",
		"Committed control-plane membership operations.", "op")
	m := &Metrics{
		rollbacks: reg.Counter("elmo_controller_rollbacks_total",
			"Membership operations rolled back (capacity exhausted or encode failure)."),
		recomputes: reg.Counter("elmo_controller_recomputes_total",
			"Group encodings recomputed after receiver-set changes (retrees)."),
		batchInstalled: reg.Counter("elmo_controller_batch_installed_total",
			"Groups committed through the bulk-install pipeline."),
		batchRecompute: reg.Counter("elmo_controller_batch_recomputed_total",
			"Speculative batch encodings redone serially at the commit point."),
		failureEvents: reg.CounterVec("elmo_controller_failure_events_total",
			"Switch failure and repair events processed.", "kind"),
		impactedGroups: reg.Counter("elmo_controller_failure_impacted_groups_total",
			"Groups whose sender headers were refreshed by failure/repair events."),
	}
	m.opLatency.create = lat.With("create")
	m.opLatency.join = lat.With("join")
	m.opLatency.leave = lat.With("leave")
	m.opLatency.install = lat.With("install")
	m.ops.create = ops.With("create")
	m.ops.remove = ops.With("remove")
	m.ops.join = ops.With("join")
	m.ops.leave = ops.With("leave")
	return m
}

// EnableMetrics registers the controller's metric families in reg and
// attaches the operation probes. The function-backed gauges hold a
// reference to this controller; re-registering the same names from a
// newer controller re-points them (the GaugeFunc replace contract), so
// sequential experiment phases can share one registry.
func (c *Controller) EnableMetrics(reg *telemetry.Registry) {
	m := newControllerMetrics(reg)
	c.metrics.Store(m)

	reg.GaugeFunc("elmo_controller_groups",
		"Live multicast groups.", func() float64 { return float64(c.NumGroups()) })
	reg.GaugeFunc("elmo_controller_srule_capacity",
		"Per-switch group-table capacity (Fmax).",
		func() float64 { return float64(c.occ.Capacity()) })

	occ := reg.GaugeVec("elmo_controller_srule_occupancy",
		"Live s-rule group-table occupancy across a tier (sum/max over switches).",
		"tier", "stat")
	occ.Func(func() float64 { t, _ := c.leafOccupancy(); return t }, "leaf", "total")
	occ.Func(func() float64 { _, mx := c.leafOccupancy(); return mx }, "leaf", "max")
	occ.Func(func() float64 { t, _ := c.spineOccupancy(); return t }, "spine", "total")
	occ.Func(func() float64 { _, mx := c.spineOccupancy(); return mx }, "spine", "max")

	upd := reg.GaugeVec("elmo_controller_updates",
		"Cumulative rule updates charged per switch class (Table 2 quantity).", "target")
	upd.Func(func() float64 { return float64(c.InspectController().HypervisorUpdates) }, "hypervisor")
	upd.Func(func() float64 { return float64(c.InspectController().LeafUpdates) }, "leaf")
	upd.Func(func() float64 { return float64(c.InspectController().SpineUpdates) }, "spine")
	upd.Func(func() float64 { return float64(c.InspectController().CoreUpdates) }, "core")
}

// countFailure charges one failure/repair event and its impacted-group
// total.
func (c *Controller) countFailure(kind string, impacted int) {
	m := c.getMetrics()
	if m.failureEvents != nil {
		m.failureEvents.With(kind).Inc()
	}
	m.impactedGroups.Add(int64(impacted))
}

// getMetrics loads the metrics handle; an atomic pointer keeps this
// lock-free on the membership hot paths.
func (c *Controller) getMetrics() *Metrics {
	return c.metrics.Load()
}

// leafOccupancy sums and maxes the live leaf s-rule counters.
func (c *Controller) leafOccupancy() (total, max float64) {
	for l := 0; l < c.topo.NumLeaves(); l++ {
		n := float64(c.occ.LeafCount(topology.LeafID(l)))
		total += n
		if n > max {
			max = n
		}
	}
	return total, max
}

// spineOccupancy sums and maxes the live spine s-rule counters.
func (c *Controller) spineOccupancy() (total, max float64) {
	for s := 0; s < c.topo.NumSpines(); s++ {
		n := float64(c.occ.SpineCount(topology.SpineID(s)))
		total += n
		if n > max {
			max = n
		}
	}
	return total, max
}
