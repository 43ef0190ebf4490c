package udpfabric

import (
	"elmo/internal/fabric"
	"elmo/internal/telemetry"
)

// Metrics is the UDP transport's telemetry bundle: socket-level
// counters plus the wrapped fabric/dataplane set, with the transport's
// own malformed and host-queue-drop families filled in. Handles are interned
// at construction; attach with SetMetrics before Start.
type Metrics struct {
	Fabric *fabric.Metrics

	sent       *telemetry.Counter
	sendErrors *telemetry.Counter
	recv       *telemetry.Counter
	retries    *telemetry.Counter
}

// NewMetrics registers the udpfabric metric families in reg (and the
// fabric/dataplane families underneath).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		Fabric: fabric.NewMetrics(reg),
		sent: reg.Counter("elmo_udp_datagrams_sent_total",
			"Datagrams successfully written to fabric UDP sockets."),
		sendErrors: reg.Counter("elmo_udpfabric_send_errors_total",
			"Datagram writes that failed at the socket."),
		recv: reg.Counter("elmo_udp_datagrams_received_total",
			"Datagrams read from fabric UDP sockets."),
		retries: reg.Counter("elmo_udp_read_retries_total",
			"Transient socket read errors retried with backoff."),
	}
	m.Fabric.WireMalformed = reg.Counter("elmo_udp_malformed_total",
		"Undecodable datagrams discarded by switch or host readers.")
	m.Fabric.HostQueueDrops = reg.Counter("elmo_udp_host_queue_drops_total",
		"Frames discarded at full host delivery queues.")
	return m
}

// SetMetrics attaches telemetry to the UDP transport and the wrapped
// fabric's probe. Call before Start; nil detaches.
func (u *UDPFabric) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	u.metrics = *m
	u.base.SetMetrics(m.Fabric)
}
