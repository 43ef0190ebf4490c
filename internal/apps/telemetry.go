package apps

import (
	"encoding/binary"
	"fmt"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

// This file reproduces the §5.2.2 host-telemetry experiment: an
// sFlow-style agent exports performance samples from its host to a set
// of collectors. With unicast the agent's egress bandwidth grows
// linearly in the collector count; with Elmo it stays flat at one
// copy's worth (the paper: 370.4 Kbps at 64 collectors vs a constant
// 5.8 Kbps).

// TelemetrySample is one exported counter record, encoded to a fixed
// 92-byte sFlow-like datagram (version, agent, sequence, and a small
// counter block).
type TelemetrySample struct {
	Agent    topology.HostID
	Sequence uint32
	CPUMilli uint32 // CPU in 1/1000 cores
	MemBytes uint64
	RxBytes  uint64
	TxBytes  uint64
}

// sampleSize is the encoded datagram size.
const sampleSize = 92

// Marshal encodes the sample.
func (s *TelemetrySample) Marshal() []byte {
	b := make([]byte, sampleSize)
	binary.BigEndian.PutUint32(b[0:], 5) // sFlow version 5
	binary.BigEndian.PutUint32(b[4:], uint32(s.Agent))
	binary.BigEndian.PutUint32(b[8:], s.Sequence)
	binary.BigEndian.PutUint32(b[12:], s.CPUMilli)
	binary.BigEndian.PutUint64(b[16:], s.MemBytes)
	binary.BigEndian.PutUint64(b[24:], s.RxBytes)
	binary.BigEndian.PutUint64(b[32:], s.TxBytes)
	return b
}

// UnmarshalTelemetry decodes a datagram.
func UnmarshalTelemetry(b []byte) (TelemetrySample, error) {
	if len(b) < sampleSize {
		return TelemetrySample{}, fmt.Errorf("apps: telemetry datagram %d bytes, want %d", len(b), sampleSize)
	}
	if v := binary.BigEndian.Uint32(b[0:]); v != 5 {
		return TelemetrySample{}, fmt.Errorf("apps: telemetry version %d", v)
	}
	return TelemetrySample{
		Agent:    topology.HostID(binary.BigEndian.Uint32(b[4:])),
		Sequence: binary.BigEndian.Uint32(b[8:]),
		CPUMilli: binary.BigEndian.Uint32(b[12:]),
		MemBytes: binary.BigEndian.Uint64(b[16:]),
		RxBytes:  binary.BigEndian.Uint64(b[24:]),
		TxBytes:  binary.BigEndian.Uint64(b[32:]),
	}, nil
}

// TelemetryPoint is one §5.2.2 measurement: the agent's egress
// bandwidth for a collector count under one transport.
type TelemetryPoint struct {
	Collectors  int
	Transport   Transport
	EgressKbps  float64
	ReportsRate float64 // reports per second used for the conversion
}

// MeasureTelemetry runs the sweep: for each collector count, export
// one report over each transport and convert the bytes leaving the
// agent's host NIC to a bandwidth at the given report rate.
func MeasureTelemetry(ctrl *controller.Controller, fab *fabric.Fabric, agent topology.HostID, allCollectors []topology.HostID, counts []int, reportsPerSec float64) ([]TelemetryPoint, error) {
	var points []TelemetryPoint
	nextGroup := uint32(1)
	for _, n := range counts {
		if n > len(allCollectors) {
			return nil, fmt.Errorf("apps: %d collectors requested, %d available", n, len(allCollectors))
		}
		collectors := allCollectors[:n]
		key := controller.GroupKey{Tenant: 88, Group: nextGroup}
		nextGroup++
		members := map[topology.HostID]controller.Role{agent: controller.RoleSender}
		for _, c := range collectors {
			members[c] = controller.RoleReceiver
		}
		if _, err := ctrl.CreateGroup(key, members); err != nil {
			return nil, err
		}
		if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
			return nil, err
		}
		sample := TelemetrySample{Agent: agent, Sequence: 1, CPUMilli: 250, MemBytes: 1 << 30}
		data := sample.Marshal()
		addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}

		// Egress = bytes on the agent's host->leaf link per report:
		// one encapsulated copy under Elmo, n copies under unicast.
		pkt, err := fab.Hypervisors[agent].Encap(addr, data)
		if err != nil {
			return nil, err
		}
		elmoEgress := pkt.WireSize()
		uniEgress := n * (50 + len(data)) // OuterSize + datagram, per collector

		// Validate end-to-end delivery and payload integrity once.
		d, err := fab.Send(agent, addr, data)
		if err != nil {
			return nil, err
		}
		if len(d.Received) != n {
			return nil, fmt.Errorf("apps: telemetry delivered %d of %d", len(d.Received), n)
		}
		for _, inner := range d.Received {
			got, err := UnmarshalTelemetry(inner)
			if err != nil {
				return nil, err
			}
			if got.Agent != agent || got.CPUMilli != 250 {
				return nil, fmt.Errorf("apps: telemetry payload corrupted: %+v", got)
			}
		}
		points = append(points,
			TelemetryPoint{Collectors: n, Transport: TransportElmo,
				EgressKbps: kbps(elmoEgress, reportsPerSec), ReportsRate: reportsPerSec},
			TelemetryPoint{Collectors: n, Transport: TransportUnicast,
				EgressKbps: kbps(uniEgress, reportsPerSec), ReportsRate: reportsPerSec},
		)
		if err := fab.UninstallGroupAt(0, ctrl, key); err != nil {
			return nil, err
		}
		if err := ctrl.RemoveGroup(key); err != nil {
			return nil, err
		}
	}
	return points, nil
}

func kbps(bytesPerReport int, reportsPerSec float64) float64 {
	return float64(bytesPerReport) * 8 * reportsPerSec / 1000
}
