// Package udpfabric runs the Elmo data plane over real UDP sockets:
// every leaf, spine, and core switch — and every host — is a localhost
// datagram endpoint, and packets cross genuine OS sockets as the exact
// wire bytes (outer Ethernet/IPv4/UDP/VXLAN encapsulation + Elmo
// section stream + inner frame) that the header package defines.
//
// This is the highest-fidelity emulation tier: where package fabric
// forwards synchronously in process and package livefabric uses
// channels, udpfabric exercises the full marshal → socket → parse path
// per hop, the shape a userspace software-switch deployment (PISCES/
// OVS-style) actually has. It is used by tests and examples, not by
// the large-scale simulations. This package is only the socket
// transport — binding, the per-socket reader and send accounting; the
// per-hop step is fabric.WireEngine's.
package udpfabric

import (
	"errors"
	"fmt"
	"net"
	"time"

	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

// maxFrame bounds one datagram (outer + 512-byte header budget + MTU).
const maxFrame = 4096

// hostQueue is each host delivery channel's capacity.
const hostQueue = 1024

// HostPacket is a frame delivered to a host endpoint.
type HostPacket = fabric.HostPacket

// UDPFabric binds a fabric's switches and hosts to UDP sockets.
// Tracer, injector and observer are the base fabric's: set them there
// before Start.
type UDPFabric struct {
	base *fabric.Fabric
	eng  *fabric.WireEngine

	// conn holds one socket per device, by link tier and device ID;
	// addr holds the same sockets' addresses, resolved once at bind time
	// so the hot path never repeats the LocalAddr type assertion.
	conn [dataplane.LinkCore + 1][]*net.UDPConn
	addr [dataplane.LinkCore + 1][]*net.UDPAddr

	metrics Metrics // zero = off: nil telemetry handles do nothing
}

// New binds one ephemeral localhost UDP socket per switch and host of
// the base fabric. Install group state, then call Start to spawn the
// switch/host readers (switch group tables are not guarded; installs
// must happen while the fabric is quiet, same contract as livefabric).
func New(base *fabric.Fabric) (*UDPFabric, error) {
	topo := base.Topology()
	u := &UDPFabric{base: base}
	u.eng = fabric.NewWireEngine(base, hostQueue, u.transmit)
	for tier, n := range [...]int{
		dataplane.LinkHost: topo.NumHosts(), dataplane.LinkLeaf: topo.NumLeaves(),
		dataplane.LinkSpine: topo.NumSpines(), dataplane.LinkCore: topo.NumCores(),
	} {
		for i := 0; i < n; i++ {
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				u.Close()
				return nil, fmt.Errorf("udpfabric: %w", err)
			}
			u.conn[tier] = append(u.conn[tier], c)
			u.addr[tier] = append(u.addr[tier], c.LocalAddr().(*net.UDPAddr))
		}
	}
	return u, nil
}

// Start spawns the per-switch and per-host reader goroutines. It is
// idempotent and safe to call from multiple goroutines; only the first
// call spawns readers, and none after Close.
func (u *UDPFabric) Start() {
	u.eng.Start(func() {
		for tier, conns := range u.conn {
			for id, c := range conns {
				// Each reader owns one scratch, reused across datagrams.
				u.eng.Go(func() {
					var sc fabric.WireScratch
					u.readLoop(c, func(wire []byte) {
						u.eng.Step(dataplane.LinkTier(tier), int32(id), wire, &sc)
					})
				})
			}
		}
	})
}

// Close shuts the sockets down and waits for the readers.
func (u *UDPFabric) Close() {
	u.eng.Stop(func() {
		for _, conns := range u.conn {
			for _, c := range conns {
				c.Close()
			}
		}
	})
}

// HostRx returns the delivery channel for a host.
func (u *UDPFabric) HostRx(h topology.HostID) <-chan HostPacket { return u.eng.HostRx(h) }

// transmit writes one datagram from the link's source socket to its
// destination and keeps the send accounting honest: only a successful
// write counts toward the sent totals; failures are tallied separately
// in elmo_udpfabric_send_errors_total. WriteToUDP copies the payload
// into the kernel before returning, so the engine's scratch is free
// again on return.
func (u *UDPFabric) transmit(l dataplane.Link, wire []byte) error {
	if _, err := u.conn[l.FromTier][l.From].WriteToUDP(wire, u.addr[l.ToTier][l.To]); err != nil {
		u.metrics.sendErrors.Inc()
		return err
	}
	u.metrics.sent.Inc()
	return nil
}

// Send encapsulates at the sender's hypervisor and transmits the frame
// to the sender's leaf over UDP.
func (u *UDPFabric) Send(sender topology.HostID, addr dataplane.GroupAddr, inner []byte) error {
	return u.eng.Send(sender, addr, inner)
}

// WaitForDeliveries collects n frames from a host with a deadline —
// a convenience for tests and examples on real sockets.
func (u *UDPFabric) WaitForDeliveries(h topology.HostID, n int, timeout time.Duration) ([]HostPacket, error) {
	return u.eng.WaitForDeliveries(h, n, timeout)
}

// readErrBackoffCap bounds the retry backoff after consecutive
// transient socket read errors.
const readErrBackoffCap = 100 * time.Millisecond

// readLoop reads one socket, handing each datagram to fn until close.
// Every datagram lands in the one buffer this reader owns, so fn must
// not retain wire (or any slice aliasing it) beyond its call. The read
// blocks only when the socket queue is empty — Go's ReadFromUDP issues
// recvfrom first and parks on EAGAIN — so a queued burst is consumed
// back to back at one syscall per datagram. Transient read errors (e.g.
// ECONNREFUSED bounced back on localhost, buffer pressure) are counted
// and retried with exponential backoff capped at readErrBackoffCap.
// Only a closed socket or fabric stop ends the loop.
func (u *UDPFabric) readLoop(conn *net.UDPConn, fn func(wire []byte)) {
	frame := make([]byte, maxFrame)
	backoff := time.Duration(0)
	for {
		n, _, err := conn.ReadFromUDP(frame)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			u.metrics.retries.Inc()
			if backoff == 0 {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > readErrBackoffCap {
				backoff = readErrBackoffCap
			}
			select {
			case <-u.eng.Stopped():
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
		u.metrics.recv.Inc()
		fn(frame[:n])
	}
}
