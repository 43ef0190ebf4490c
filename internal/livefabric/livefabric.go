// Package livefabric runs the emulated Elmo fabric as a concurrent
// system: every leaf, spine, and core switch is a goroutine consuming
// fully marshaled wire frames from its ingress channel and stepping
// fabric.WireEngine over them (parse → match → replicate → pop →
// marshal), which writes the resulting frames to the neighbors'
// channels. Hosts receive decoded frames on per-host channels.
//
// Where package fabric forwards synchronously for deterministic
// measurement, livefabric exercises the same switch pipelines under
// real concurrency and real (de)serialization per hop — the form the
// example applications (market data feeds, chat) run on. This package
// is only the channel transport: one ingress queue per switch, one
// goroutine draining each.
package livefabric

import (
	"fmt"

	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

// HostPacket is one frame delivered to a host's VMs.
type HostPacket = fabric.HostPacket

const (
	// queueDepth is each switch ingress queue's capacity. Queues full
	// enough to block model congestion; frames are never dropped.
	queueDepth = 4096
	// hostQueueDepth is each host RX channel's capacity; overflow
	// drops the frame (receiver too slow), reported to the base
	// fabric's probe.
	hostQueueDepth = 4096
)

// LiveFabric wraps a fabric's switches with goroutines and channels.
// Tracer, metrics, injector and observer are the base fabric's: set
// them there before Start.
type LiveFabric struct {
	base *fabric.Fabric
	eng  *fabric.WireEngine
	// in holds the switch ingress queues by link tier and switch ID
	// (hosts have none: the last hop steps the host inline).
	in [dataplane.LinkCore + 1][]chan []byte
}

// New wraps an existing (already configured) fabric. Group state must
// be installed through the base fabric (Base().InstallGroupAt) before
// Start — switch goroutines read the same group tables; the live
// fabric only moves packets.
func New(base *fabric.Fabric) *LiveFabric {
	topo := base.Topology()
	lf := &LiveFabric{base: base}
	lf.in[dataplane.LinkLeaf] = makeChans(topo.NumLeaves(), queueDepth)
	lf.in[dataplane.LinkSpine] = makeChans(topo.NumSpines(), queueDepth)
	lf.in[dataplane.LinkCore] = makeChans(topo.NumCores(), queueDepth)
	lf.eng = fabric.NewWireEngine(base, hostQueueDepth, lf.transmit)
	return lf
}

func makeChans(n, depth int) []chan []byte {
	chs := make([]chan []byte, n)
	for i := range chs {
		chs[i] = make(chan []byte, depth)
	}
	return chs
}

// Base returns the wrapped fabric (for group installation and hooks).
func (lf *LiveFabric) Base() *fabric.Fabric { return lf.base }

// HostRx returns the delivery channel for a host.
func (lf *LiveFabric) HostRx(h topology.HostID) <-chan HostPacket { return lf.eng.HostRx(h) }

// Send encapsulates at the sender's hypervisor and injects the frame
// at its leaf. It returns once the frame is queued; deliveries arrive
// on HostRx channels.
func (lf *LiveFabric) Send(sender topology.HostID, addr dataplane.GroupAddr, inner []byte) error {
	return lf.eng.Send(sender, addr, inner)
}

// transmit queues a copy of the frame at the next switch, blocking on
// a full queue (congestion) unless the fabric stops. The leaf→host hop
// has no queue: the host is stepped in the leaf's goroutine.
func (lf *LiveFabric) transmit(l dataplane.Link, wire []byte) error {
	if l.ToTier == dataplane.LinkHost {
		lf.eng.Step(l.ToTier, l.To, wire, nil)
		return nil
	}
	select {
	case lf.in[l.ToTier][l.To] <- append([]byte(nil), wire...):
		return nil
	case <-lf.eng.Stopped():
		return fmt.Errorf("livefabric: stopped")
	}
}

// Start launches one goroutine per switch. The fabric is one-shot:
// Start after Stop does nothing.
func (lf *LiveFabric) Start() {
	lf.eng.Start(func() {
		for tier, chs := range lf.in {
			for id, ch := range chs {
				lf.eng.Go(func() { lf.run(dataplane.LinkTier(tier), int32(id), ch) })
			}
		}
	})
}

func (lf *LiveFabric) run(tier dataplane.LinkTier, id int32, ch <-chan []byte) {
	var sc fabric.WireScratch
	for {
		select {
		case <-lf.eng.Stopped():
			return
		case wire := <-ch:
			lf.eng.Step(tier, id, wire, &sc)
		}
	}
}

// Stop terminates the switch goroutines. In-flight frames may be lost:
// a clean shutdown waits for the deliveries it expects on HostRx first.
func (lf *LiveFabric) Stop() { lf.eng.Stop(nil) }
