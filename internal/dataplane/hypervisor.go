package dataplane

import (
	"errors"
	"fmt"
	"sync"

	"elmo/internal/header"
	"elmo/internal/topology"
)

// ErrNoSenderFlow is returned (wrapped) by Encap when the hypervisor
// has no flow installed for the group — the signal a sender uses to
// fall back to unicast while the controller repairs the group (§3.3).
var ErrNoSenderFlow = errors.New("dataplane: no sender flow")

// SenderFlow is a hypervisor flow-table entry for one group a local VM
// sends to: the precomputed Elmo section stream and the outer-header
// template. Precomputing the stream is the §4.2 optimization — the
// hypervisor encapsulates with a single contiguous write instead of
// one write per p-rule header.
type SenderFlow struct {
	addr   GroupAddr
	outer  header.OuterFields
	stream []byte
	noINT  bool
}

// Hypervisor is the software switch on one host (paper §2): it
// encapsulates multicast packets from local VMs with the group's Elmo
// header, and on receive it filters packets to groups with local
// members, discarding the rest.
type Hypervisor struct {
	// The fields AppendDeliver touches come first and together: with one
	// hypervisor per host the struct is cold in cache on every copy, and
	// 176 bytes in declaration order spread the receive path over three
	// lines.

	// mu guards flows and receiving: the live fabrics deliver on
	// concurrent switch goroutines while the controller installs.
	mu sync.RWMutex
	// receiving is the receive filter: the groups with a local member.
	receiving addrSet
	// Probe is where the hypervisor reports encap, deliver and filter
	// events (see probe.go); the fabric that builds it sets it, and a
	// stand-alone hypervisor leaves it nil and counts nothing.
	Probe  *Probe
	layout header.Layout

	topo  *topology.Topology
	host  topology.HostID
	flows map[GroupAddr]*SenderFlow

	// fence is the leadership epoch floor: installs stamped with a
	// lower epoch are rejected (see fence.go).
	fence EpochFence
}

// NewHypervisor creates the hypervisor switch for a host.
func NewHypervisor(topo *topology.Topology, host topology.HostID) *Hypervisor {
	return &Hypervisor{
		topo:   topo,
		layout: header.LayoutFor(topo),
		host:   host,
		flows:  make(map[GroupAddr]*SenderFlow),
	}
}

// Host returns the host this hypervisor runs on.
func (hv *Hypervisor) Host() topology.HostID { return hv.host }

// InstallSenderFlowAt installs (or replaces) the encapsulation state
// for a group on behalf of the controller leading at epoch. stream is
// the message a controller sends: the sender's precomputed Elmo section
// stream, which must be exactly one well-framed stream under the
// fabric's layout (header.StreamInfo). The hypervisor keeps its own
// copy, so the caller may reuse stream. A stale epoch leaves the flow
// table untouched and returns a *StaleEpochError (see fence.go).
func (hv *Hypervisor) InstallSenderFlowAt(epoch uint64, addr GroupAddr, stream []byte) error {
	if err := hv.admit(epoch); err != nil {
		return err
	}
	// The copy is validated, not stream: then stream does not escape, and
	// a caller may build it in a stack buffer.
	own := make([]byte, len(stream))
	copy(own, stream)
	n, hasINT, err := header.StreamInfo(hv.layout, own)
	if err != nil {
		return fmt.Errorf("dataplane: sender flow: %w", err)
	}
	if n != len(own) {
		return fmt.Errorf("dataplane: sender flow: %d bytes after the %d-byte section stream", len(own)-n, n)
	}
	hv.mu.Lock()
	hv.flows[addr] = &SenderFlow{
		addr:   addr,
		outer:  SenderOuter(hv.topo, hv.host, addr),
		stream: own,
		noINT:  !hasINT,
	}
	hv.mu.Unlock()
	return nil
}

// RemoveSenderFlowAt drops the encapsulation state for a group
// (idempotent) behind the epoch fence; the sender then falls back to
// unicast (Encap returns ErrNoSenderFlow).
func (hv *Hypervisor) RemoveSenderFlowAt(epoch uint64, addr GroupAddr) error {
	if err := hv.admit(epoch); err != nil {
		return err
	}
	hv.mu.Lock()
	delete(hv.flows, addr)
	hv.mu.Unlock()
	return nil
}

// SetReceivingAt marks, behind the epoch fence, whether a local VM is
// a member of the group; the receive path drops packets of other
// groups.
func (hv *Hypervisor) SetReceivingAt(epoch uint64, addr GroupAddr, on bool) error {
	if err := hv.admit(epoch); err != nil {
		return err
	}
	hv.mu.Lock()
	if on {
		hv.receiving.add(addr)
	} else {
		hv.receiving.remove(addr)
	}
	hv.mu.Unlock()
	return nil
}

// Encap encapsulates an inner frame for the group, returning the
// packet handed to the source leaf. It fails if no flow is installed
// (the hypervisor discards sends to unknown groups).
func (hv *Hypervisor) Encap(addr GroupAddr, inner []byte) (Packet, error) {
	hv.mu.RLock()
	f, ok := hv.flows[addr]
	hv.mu.RUnlock()
	if !ok {
		return Packet{}, fmt.Errorf("host %d, group %+v: %w", hv.host, addr, ErrNoSenderFlow)
	}
	hv.Probe.encap(hv, addr, len(f.stream))
	return Packet{Outer: f.outer, Elmo: f.stream, Inner: inner, NoINT: f.noINT}, nil
}

// DeliverFull is the receive path: it accepts the packet if a local VM
// belongs to the group, returning the inner frame and the packet's
// in-band telemetry records (§7 Monitoring: the per-hop path the copy
// actually took, when the sender enabled INT). Spurious packets
// (reaching this host only through shared-bitmap or default-rule
// redundancy) are filtered, mirroring "each hypervisor switch only
// maintains flow rules for multicast groups that have member VMs
// running on the same host, discarding packets belonging to other
// groups" (§2). The records are the caller's own: DeliverFull is
// AppendDeliver into a nil slice.
func (hv *Hypervisor) DeliverFull(p Packet) ([]byte, []header.INTRecord, bool) {
	return hv.AppendDeliver(nil, p)
}

// AppendDeliver is DeliverFull appending the packet's telemetry records
// to dst, which grows at most once: a caller that delivers many copies
// decodes them all into one buffer. It returns the extended slice, or
// dst unchanged for a filtered packet and for one without records.
func (hv *Hypervisor) AppendDeliver(dst []header.INTRecord, p Packet) (inner []byte, records []header.INTRecord, ok bool) {
	addr, ok := GroupAddrFromOuter(p.Outer)
	if ok {
		hv.mu.RLock()
		ok = hv.receiving.has(addr)
		hv.mu.RUnlock()
	}
	if !ok {
		hv.Probe.filter(hv, addr)
		return nil, dst, false
	}
	hv.Probe.deliver(hv, addr)
	// A section that fails to parse yields no records, not an error: the
	// frame itself arrived.
	records, _ = header.AppendINT(dst, hv.layout, p.Elmo)
	return p.Inner, records, true
}

// groupMAC maps a group address to the standard IPv4-multicast MAC
// (01:00:5e + low 23 bits).
func groupMAC(addr GroupAddr) [6]byte {
	ip := header.GroupIP(addr.Group)
	return [6]byte{0x01, 0x00, 0x5e, ip[1] & 0x7f, ip[2], ip[3]}
}
