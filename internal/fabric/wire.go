package fabric

import (
	"fmt"
	"sync"
	"time"

	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file is the wire engine: the forwarding step of the tiers whose
// devices run concurrently and exchange marshaled frames (package
// livefabric over channels, package udpfabric over sockets). It shares
// the wiring table (NextHop) and the switch pipeline with the sync
// forwarder in fabric.go and nothing else: here packets cross links as
// bytes, deliveries arrive asynchronously on per-host channels, and an
// injected delay is wall-clock milliseconds. Every report goes to the
// base Fabric's probe, so hooks are set there once.

// HostPacket is one frame delivered to a host's VMs.
type HostPacket struct {
	Addr      dataplane.GroupAddr
	Inner     []byte
	Telemetry []header.INTRecord
}

// Transmit carries one marshaled frame across link l to the ingress of
// device (l.ToTier, l.To), which hands it to Step. wire is the
// engine's reusable scratch: a transport that queues the frame copies
// it before returning.
type Transmit func(l dataplane.Link, wire []byte) error

// WireScratch is one device loop's working memory for Step: the switch
// scratch plus the marshal buffer reused across emissions.
type WireScratch struct {
	sw  dataplane.SwitchScratch
	buf []byte
}

// WireEngine moves marshaled frames through a base fabric's switches
// and hypervisors over a transport's Transmit.
type WireEngine struct {
	f        *Fabric
	transmit Transmit
	hostRx   []chan HostPacket

	// life orders Start's goroutine launches against Stop's wait.
	life    sync.Mutex
	started bool
	stopped chan struct{}
	wg      sync.WaitGroup
}

// NewWireEngine wraps an already configured fabric. hostQueue is each
// host delivery channel's capacity; a frame arriving at a full channel
// is dropped and counted (receiver too slow).
func NewWireEngine(f *Fabric, hostQueue int, transmit Transmit) *WireEngine {
	e := &WireEngine{f: f, transmit: transmit, stopped: make(chan struct{})}
	e.hostRx = make([]chan HostPacket, f.topo.NumHosts())
	for i := range e.hostRx {
		e.hostRx[i] = make(chan HostPacket, hostQueue)
	}
	return e
}

// Start runs spawn — the transport's device loops, launched with Go —
// once. The engine is one-shot: Start on a started or stopped engine
// does nothing. Safe to call concurrently with Start and Stop.
func (e *WireEngine) Start(spawn func()) {
	e.life.Lock()
	defer e.life.Unlock()
	select {
	case <-e.stopped:
		return
	default:
	}
	if !e.started {
		e.started = true
		spawn()
	}
}

// Go runs fn on a goroutine that Stop waits for. Call it from Start's
// spawn only.
func (e *WireEngine) Go(fn func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn()
	}()
}

// Stopped is closed when the engine stops; device loops select on it.
func (e *WireEngine) Stopped() <-chan struct{} { return e.stopped }

// Stop closes Stopped, calls unblock (if non-nil) to wake loops parked
// outside a select — a socket transport closes its sockets there — and
// waits for every Go goroutine. Only the first call closes and
// unblocks; frames in flight may be lost.
func (e *WireEngine) Stop(unblock func()) {
	e.life.Lock()
	select {
	case <-e.stopped:
	default:
		close(e.stopped)
		if unblock != nil {
			unblock()
		}
	}
	e.life.Unlock()
	e.wg.Wait()
}

// Send encapsulates inner at the sender's hypervisor and transmits the
// frame over the host's uplink. It does not wait for delivery; frames
// arrive on the members' HostRx channels.
func (e *WireEngine) Send(sender topology.HostID, addr dataplane.GroupAddr, inner []byte) error {
	pkt, err := e.f.Hypervisors[sender].Encap(addr, inner)
	if err != nil {
		return err
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		return err
	}
	return e.cross(e.f.uplink(sender), &pkt.Outer, wire)
}

// Step runs device (tier, id) over one arriving frame. A switch parses
// it, runs the pipeline and transmits every emission over its next
// hop; a host decapsulates it and queues the inner frame for its VMs.
// wire is not retained. sc is the calling loop's scratch (hosts need
// none): each switch must be stepped from one goroutine, and every
// emission is marshaled and handed to Transmit before Step returns, so
// the scratch is reset per frame.
func (e *WireEngine) Step(tier dataplane.LinkTier, id int32, wire []byte, sc *WireScratch) {
	pkt, err := dataplane.Unmarshal(e.f.layout, wire)
	if err != nil {
		e.f.probe.Malformed()
		return
	}
	if tier == dataplane.LinkHost {
		e.deliver(topology.HostID(id), &pkt)
		return
	}
	sc.sw.Reset()
	ems, err := e.f.switchAt(tier, id).ProcessInto(pkt, &sc.sw)
	if err != nil {
		e.f.probe.Malformed()
		return
	}
	for i := range ems {
		em := &ems[i]
		if sc.buf, err = em.Packet.Marshal(sc.buf[:0]); err != nil {
			e.f.probe.Malformed()
			continue
		}
		// Transmit errors are the transport's to count.
		_ = e.cross(e.f.NextHop(tier, id, em), &em.Packet.Outer, sc.buf)
	}
}

// cross puts one marshaled frame on link l and applies the probe's
// verdict to the bytes: an active injector may drop, duplicate, corrupt
// or delay the frame. DelaySteps is milliseconds here; the delayed copy
// is the timer's own, so wire is free on return. The transport's error
// is returned for the undelayed original.
func (e *WireEngine) cross(l dataplane.Link, outer *header.OuterFields, wire []byte) error {
	a, _ := dataplane.GroupAddrFromOuter(*outer)
	v := e.f.probe.Cross(l, a.VNI, a.Group, len(wire))
	if v.Drop {
		return nil
	}
	if v.Corrupt {
		e.f.probe.Corrupt(wire)
	}
	if v.Duplicate {
		_ = e.transmit(l, wire)
	}
	if v.DelaySteps <= 0 {
		return e.transmit(l, wire)
	}
	delayed := append([]byte(nil), wire...)
	time.AfterFunc(time.Duration(v.DelaySteps)*time.Millisecond, func() {
		select {
		case <-e.stopped:
		default:
			_ = e.transmit(l, delayed)
		}
	})
	return nil
}

// deliver is the host step: filter, decapsulate, queue.
func (e *WireEngine) deliver(h topology.HostID, pkt *dataplane.Packet) {
	inner, tel, ok := e.f.Hypervisors[h].DeliverFull(*pkt)
	if !ok {
		return
	}
	addr, _ := dataplane.GroupAddrFromOuter(pkt.Outer)
	// inner aliases the transport's frame buffer, which is recycled
	// once Step returns; the queued HostPacket gets its own copy.
	hp := HostPacket{Addr: addr, Inner: append([]byte(nil), inner...), Telemetry: tel}
	select {
	case e.hostRx[h] <- hp:
	default:
		e.f.probe.HostDrop(int32(h), addr)
	}
}

// HostRx returns the delivery channel for a host.
func (e *WireEngine) HostRx(h topology.HostID) <-chan HostPacket { return e.hostRx[h] }

// WaitForDeliveries collects n frames from a host with a deadline — a
// convenience for tests, examples and the benchmark.
func (e *WireEngine) WaitForDeliveries(h topology.HostID, n int, timeout time.Duration) ([]HostPacket, error) {
	out := make([]HostPacket, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case p := <-e.hostRx[h]:
			out = append(out, p)
		case <-deadline:
			return out, fmt.Errorf("fabric: host %d got %d of %d before timeout", h, len(out), n)
		}
	}
	return out, nil
}
