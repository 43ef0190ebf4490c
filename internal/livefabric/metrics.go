package livefabric

import (
	"elmo/internal/fabric"
	"elmo/internal/telemetry"
)

// Metrics is the live fabric's telemetry bundle: the wrapped
// fabric/dataplane set with the channel transport's own malformed and
// host-queue-drop families filled in. Handles are interned at
// construction; attach with SetMetrics before Start.
type Metrics struct {
	Fabric *fabric.Metrics
}

// NewMetrics registers the livefabric metric families in reg (and the
// fabric/dataplane families underneath).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{Fabric: fabric.NewMetrics(reg)}
	m.Fabric.HostQueueDrops = reg.Counter("elmo_live_host_queue_drops_total",
		"Frames discarded at full host delivery channels.")
	m.Fabric.WireMalformed = reg.Counter("elmo_live_malformed_total",
		"Undecodable frames discarded by switch goroutines.")
	return m
}

// SetMetrics attaches telemetry to the wrapped fabric's probe, which
// the transport, the switches and the hypervisors all report to. Call
// before Start; nil detaches.
func (lf *LiveFabric) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	lf.base.SetMetrics(m.Fabric)
}
