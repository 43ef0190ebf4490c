package livefabric

import (
	"elmo/internal/fabric"
	"elmo/internal/telemetry"
)

// Metrics is the live fabric's telemetry bundle: channel-transport
// counters plus the wrapped fabric/dataplane set. Handles are interned
// at construction; attach with SetMetrics before Start.
type Metrics struct {
	Fabric *fabric.Metrics

	hostDrops *telemetry.Counter
	malformed *telemetry.Counter
}

// NewMetrics registers the livefabric metric families in reg (and the
// fabric/dataplane families underneath).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Fabric: fabric.NewMetrics(reg),
		hostDrops: reg.Counter("elmo_live_host_queue_drops_total",
			"Frames discarded at full host delivery channels."),
		malformed: reg.Counter("elmo_live_malformed_total",
			"Undecodable frames discarded by switch goroutines."),
	}
}

// SetMetrics attaches telemetry to the live fabric's transport and the
// wrapped fabric's switches and hypervisors. Call before Start; nil
// detaches.
func (lf *LiveFabric) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	lf.base.SetMetrics(m.Fabric)
	lf.eng.SetCounters(m.malformed, m.hostDrops)
}
