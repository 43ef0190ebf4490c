package churn

import "elmo/internal/telemetry"

// Metrics publishes churn progress to a telemetry registry so a
// /metrics scrape during a long soak sees the event stream move in real
// time (the Result totals only exist after Run returns). Attach via
// Config.Metrics; nil keeps the run telemetry-free (the handles of a
// zero Metrics are nil, and nil telemetry handles do nothing).
type Metrics struct {
	applied *telemetry.Counter
	skipped *telemetry.Counter
	rate    *telemetry.Gauge
	drift   *telemetry.Gauge
}

// NewMetrics registers the churn metric families in reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		applied: reg.Counter("elmo_churn_events_applied_total",
			"Join/leave events applied to the controller."),
		skipped: reg.Counter("elmo_churn_events_skipped_total",
			"Generated events skipped (no eligible non-member VM found)."),
		rate: reg.Gauge("elmo_churn_events_per_second",
			"Configured churn event rate (events/sec of simulated time)."),
		drift: reg.Gauge("elmo_churn_weight_drift",
			"Largest divergence between a group's sampling weight and its live size."),
	}
}
