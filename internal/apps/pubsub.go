// Package apps reproduces the end-to-end application experiments of
// paper §5.2 and §5.3 on the emulated fabric:
//
//   - a ZeroMQ-style publish-subscribe system (Figure 6): publisher
//     throughput and CPU as subscriber counts grow, unicast vs Elmo;
//   - an sFlow-style host-telemetry exporter (§5.2.2): agent egress
//     bandwidth as collector counts grow;
//   - the PISCES hypervisor-switch encapsulation microbenchmark
//     (Figure 7): packet rate vs number of p-rules, including the §4.2
//     ablation of one-write-per-header vs one-write-per-p-rule.
//
// The applications run unmodified over both transports: they publish
// opaque frames to a group address and the transport (unicast
// replication or Elmo) is chosen underneath, exactly as the paper runs
// ZeroMQ/sFlow unchanged.
package apps

import (
	"fmt"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// Transport selects how a publish reaches group members.
type Transport int

const (
	// TransportUnicast replicates at the sender (the cloud status quo).
	TransportUnicast Transport = iota
	// TransportElmo sends one copy with the Elmo header.
	TransportElmo
)

func (tr Transport) String() string {
	if tr == TransportElmo {
		return "elmo"
	}
	return "unicast"
}

// PubSub is a publish-subscribe system bound to one group on a fabric.
type PubSub struct {
	ctrl      *controller.Controller
	fab       *fabric.Fabric
	key       controller.GroupKey
	addr      dataplane.GroupAddr
	publisher topology.HostID
	subs      []topology.HostID
	// Delivered counts messages received across subscribers.
	Delivered int
}

// NewPubSub creates the group (publisher as sender, subscribers as
// receivers) and installs its data-plane state.
func NewPubSub(ctrl *controller.Controller, fab *fabric.Fabric, key controller.GroupKey, publisher topology.HostID, subs []topology.HostID) (*PubSub, error) {
	members := map[topology.HostID]controller.Role{publisher: controller.RoleSender}
	for _, s := range subs {
		if s == publisher {
			return nil, fmt.Errorf("apps: publisher cannot subscribe to itself")
		}
		members[s] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		return nil, err
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		return nil, err
	}
	return &PubSub{
		ctrl: ctrl, fab: fab, key: key,
		addr:      dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group},
		publisher: publisher, subs: subs,
	}, nil
}

// Close removes the group from both planes.
func (ps *PubSub) Close() error {
	if err := ps.fab.UninstallGroupAt(0, ps.ctrl, ps.key); err != nil {
		return err
	}
	return ps.ctrl.RemoveGroup(ps.key)
}

// Publish sends one message to all subscribers over the chosen
// transport and returns the number of subscriber deliveries.
func (ps *PubSub) Publish(tr Transport, msg []byte) (int, error) {
	var d *fabric.Delivery
	var err error
	switch tr {
	case TransportElmo:
		d, err = ps.fab.Send(ps.publisher, ps.addr, msg)
	default:
		d, err = ps.fab.SendUnicast(ps.publisher, ps.subs, msg)
	}
	if err != nil {
		return 0, err
	}
	ps.Delivered += len(d.Received)
	return len(d.Received), nil
}

// PubSubPoint is one measurement of Figure 6: publisher-side message
// rate and modeled CPU at a fixed offered load, for one subscriber
// count and transport.
type PubSubPoint struct {
	Subscribers int
	Transport   Transport
	// PerMessage is the measured publisher cost of one publish call.
	PerMessage time.Duration
	// Throughput is the per-subscriber message rate the publisher can
	// sustain (messages/sec each subscriber observes).
	Throughput float64
	// CPUPercent is the publisher CPU share at the reference offered
	// load (see MeasurePubSub).
	CPUPercent float64
}

// MeasurePubSub runs the Figure 6 sweep: for each subscriber count it
// measures per-publish cost under both transports and derives
// throughput and CPU.
//
// CPU model (documented substitution for the paper's testbed VMs): the
// publisher's CPU share at a fixed offered load L is
// cost-per-message × L, capped at 100%. L is calibrated so the Elmo
// publisher at one subscriber sits at the paper's ~5% — the unicast
// line then grows with the replication factor exactly as the testbed's
// did, saturating where per-message cost × L reaches 1.
func MeasurePubSub(ctrl *controller.Controller, fab *fabric.Fabric, publisher topology.HostID, allSubs []topology.HostID, counts []int, msgSize, msgsPerPoint int) ([]PubSubPoint, error) {
	var points []PubSubPoint
	msg := make([]byte, msgSize)
	var elmoBase time.Duration
	nextGroup := uint32(1)
	for _, n := range counts {
		if n > len(allSubs) {
			return nil, fmt.Errorf("apps: %d subscribers requested, %d available", n, len(allSubs))
		}
		key := controller.GroupKey{Tenant: 77, Group: nextGroup}
		nextGroup++
		ps, err := NewPubSub(ctrl, fab, key, publisher, allSubs[:n])
		if err != nil {
			return nil, err
		}
		for _, tr := range []Transport{TransportElmo, TransportUnicast} {
			per, err := timePublish(ps, tr, msg, msgsPerPoint, n)
			if err != nil {
				return nil, err
			}
			if tr == TransportElmo && elmoBase == 0 {
				elmoBase = per
			}
			points = append(points, PubSubPoint{
				Subscribers: n,
				Transport:   tr,
				PerMessage:  per,
			})
		}
		if err := ps.Close(); err != nil {
			return nil, err
		}
	}
	// Calibrate the reference load from the first Elmo point: 5% CPU.
	if elmoBase <= 0 {
		elmoBase = time.Microsecond
	}
	refLoad := 0.05 / elmoBase.Seconds()
	for i := range points {
		p := &points[i]
		cpu := p.PerMessage.Seconds() * refLoad * 100
		if cpu > 100 {
			cpu = 100
		}
		p.CPUPercent = cpu
		// The publisher saturates when cost×rate reaches 1; throughput
		// per subscriber is the sustainable publish rate.
		maxRate := 1 / p.PerMessage.Seconds()
		if refLoad < maxRate {
			p.Throughput = refLoad
		} else {
			p.Throughput = maxRate
		}
	}
	return points, nil
}

// timePublish measures the PUBLISHER-side cost of one message — the
// quantity that bottlenecks Figure 6. One functional publish first
// validates end-to-end delivery through the fabric; the timed loop
// then performs exactly the work the publisher's hypervisor does per
// message: one encapsulation + serialization under Elmo, and one per
// subscriber under unicast.
func timePublish(ps *PubSub, tr Transport, msg []byte, msgs, wantSubs int) (time.Duration, error) {
	if got, err := ps.Publish(tr, msg); err != nil {
		return 0, err
	} else if got != wantSubs {
		return 0, fmt.Errorf("apps: %s delivered %d of %d", tr, got, wantSubs)
	}
	hv := ps.fab.Hypervisors[ps.publisher]
	buf := make([]byte, 0, 2048)
	// Best-of-three trials: a single GC pause or scheduler hiccup in a
	// trial would otherwise dominate the per-message cost.
	best := time.Duration(0)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		switch tr {
		case TransportElmo:
			for i := 0; i < msgs; i++ {
				pkt, err := hv.Encap(ps.addr, msg)
				if err != nil {
					return 0, err
				}
				buf, err = pkt.Marshal(buf[:0])
				if err != nil {
					return 0, err
				}
			}
		default:
			topo := ps.fab.Topology()
			for i := 0; i < msgs; i++ {
				for _, sub := range ps.subs {
					pkt := dataplane.Packet{
						Outer: header.OuterFields{
							SrcMAC:  header.HostMAC(ps.publisher),
							DstMAC:  header.HostMAC(sub),
							SrcIP:   header.HostIP(topo, ps.publisher),
							DstIP:   header.HostIP(topo, sub),
							SrcPort: uint16(49152 + i%16384),
							TTL:     64,
						},
						Inner: msg,
					}
					var err error
					buf, err = pkt.Marshal(buf[:0])
					if err != nil {
						return 0, err
					}
				}
			}
		}
		elapsed := time.Since(start) / time.Duration(msgs)
		if trial == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}
