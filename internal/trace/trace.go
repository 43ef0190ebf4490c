// Package trace is the repo's cross-layer flight recorder: a bounded,
// lock-light ring buffer of typed events that the data planes (the
// switch pipelines shared by the fabric, livefabric, and udpfabric
// tiers), the hypervisors, and the controller emit while they work.
//
// Tracing answers the questions metrics cannot: *why* did a packet
// take a path (which p-rule, s-rule, or default rule forwarded it at
// each hop, and how many header bytes were popped), and *what* did the
// controller do during a churn or failure event (joins, recomputes,
// FailSpine/FailCore, rollbacks) — the per-hop encoding behavior the
// paper's §3–§5 claims are about.
//
// The disabled path is free: instrumented code guards every event with
// On(r, cat), a nil check plus a single atomic load, and builds the
// event only when it passes, so a disabled (or absent) recorder adds
// zero allocations and no locking to packet forwarding. When enabled,
// every event of an enabled category is kept: it lands in a
// fixed-capacity ring that overwrites the oldest entries, so the
// recorder is safe to leave attached to long runs.
//
// Exporters: RenderPath reconstructs a human-readable per-packet hop
// chain ("group vni=1 g=1: host 0 → leaf 0 [p-rule ports=...] → ...");
// WriteChrome emits Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Category is a coarse event class with its own bit in the recorder's
// enable mask. Hot-path packet events and cold control-plane events
// are separate categories so one can be recorded without the other.
type Category uint8

const (
	// CatHop is a network-switch pipeline traversal (leaf/spine/core).
	CatHop Category = iota
	// CatHost is a hypervisor event: encapsulation, delivery, filter.
	CatHost
	// CatControl is a controller lifecycle event: group create/remove,
	// join/leave, failure, repair, rollback.
	CatControl
	// CatEncoder is an encoding/clustering decision with its
	// Hmax/Kmax/R/Fmax context.
	CatEncoder
	// CatFabric is a fabric-tier transport event: queue overflow drops,
	// malformed frames (live fabrics only; the sync fabric surfaces
	// these as errors).
	CatFabric
	// CatChaos is an injected fault: a chaos injector dropped,
	// duplicated, corrupted, or delayed a packet at a link crossing, or
	// the health monitor detected a failure/repair from probe loss.
	CatChaos

	numCategories
)

func (c Category) String() string {
	switch c {
	case CatHop:
		return "hop"
	case CatHost:
		return "host"
	case CatControl:
		return "control"
	case CatEncoder:
		return "encoder"
	case CatFabric:
		return "fabric"
	case CatChaos:
		return "chaos"
	default:
		return "?"
	}
}

// allMask enables every category.
const allMask = 1<<numCategories - 1

// Kind is the specific event type within a category.
type Kind uint8

const (
	// KindHop (CatHop): one switch processed a packet and emitted
	// copies; Rule says what matched, Ports/UpPorts where copies went,
	// Popped how many Elmo header bytes the switch consumed.
	KindHop Kind = iota
	// KindDrop (CatHop): a switch dropped the packet; Arg is the
	// dataplane drop reason code.
	KindDrop
	// KindEncap (CatHost): a hypervisor encapsulated a send; Arg is the
	// Elmo stream length in bytes.
	KindEncap
	// KindDeliver (CatHost): a hypervisor accepted a copy for a member.
	KindDeliver
	// KindFilter (CatHost): a hypervisor discarded a spurious copy.
	KindFilter
	// KindHostDrop (CatFabric): a live fabric dropped a frame at a full
	// host queue.
	KindHostDrop
	// KindMalformed (CatFabric): a live fabric failed to parse a frame.
	KindMalformed
	// KindCreateGroup / KindRemoveGroup (CatControl): group lifecycle;
	// Arg is the member count.
	KindCreateGroup
	KindRemoveGroup
	// KindJoin / KindLeave (CatControl): membership churn; Arg is the
	// host, Note the role.
	KindJoin
	KindLeave
	// KindRecompute (CatControl): a group's tree was recomputed; Arg is
	// the host that changed (or -1).
	KindRecompute
	// KindFailSpine / KindFailCore / KindRepairSpine / KindRepairCore
	// (CatControl): failure charging; Switch is the failed switch, Arg
	// the number of groups impacted.
	KindFailSpine
	KindFailCore
	KindRepairSpine
	KindRepairCore
	// KindRollback (CatControl): an update failed and state was rolled
	// back; Note carries the error.
	KindRollback
	// KindEncode (CatEncoder): one encoding run; Note carries the
	// Hmax/Kmax/R/Fmax context and the resulting rule counts.
	KindEncode
	// KindFaultDrop / KindFaultDup / KindFaultCorrupt / KindFaultDelay
	// (CatChaos): an injector verdict at a link crossing; Tier/Switch
	// identify the receiving end of the link, Arg the delay in steps for
	// KindFaultDelay.
	KindFaultDrop
	KindFaultDup
	KindFaultCorrupt
	KindFaultDelay
	// KindDetectFail / KindDetectRepair (CatChaos): the health monitor
	// concluded from probe loss that a switch failed or recovered;
	// Tier/Switch identify the switch, Arg the consecutive probe rounds
	// behind the verdict.
	KindDetectFail
	KindDetectRepair
)

func (k Kind) String() string {
	switch k {
	case KindHop:
		return "hop"
	case KindDrop:
		return "drop"
	case KindEncap:
		return "encap"
	case KindDeliver:
		return "deliver"
	case KindFilter:
		return "filter"
	case KindHostDrop:
		return "host-drop"
	case KindMalformed:
		return "malformed"
	case KindCreateGroup:
		return "create-group"
	case KindRemoveGroup:
		return "remove-group"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindRecompute:
		return "recompute"
	case KindFailSpine:
		return "fail-spine"
	case KindFailCore:
		return "fail-core"
	case KindRepairSpine:
		return "repair-spine"
	case KindRepairCore:
		return "repair-core"
	case KindRollback:
		return "rollback"
	case KindEncode:
		return "encode"
	case KindFaultDrop:
		return "fault-drop"
	case KindFaultDup:
		return "fault-dup"
	case KindFaultCorrupt:
		return "fault-corrupt"
	case KindFaultDelay:
		return "fault-delay"
	case KindDetectFail:
		return "detect-fail"
	case KindDetectRepair:
		return "detect-repair"
	default:
		return "?"
	}
}

// RuleKind classifies what forwarded a packet at a hop, the §4.1
// ingress control flow: packet p-rule, group-table s-rule, or the
// default p-rule.
type RuleKind uint8

const (
	// RuleNone: no rule involved (drops, host events).
	RuleNone RuleKind = iota
	// RulePRule: a p-rule carried in the packet matched.
	RulePRule
	// RuleSRule: the switch's group table (s-rule) matched.
	RuleSRule
	// RuleDefault: the header's default p-rule was used.
	RuleDefault
)

func (r RuleKind) String() string {
	switch r {
	case RulePRule:
		return "p-rule"
	case RuleSRule:
		return "s-rule"
	case RuleDefault:
		return "default"
	default:
		return "-"
	}
}

// Tier locates an event's emitter in the Clos hierarchy.
type Tier uint8

const (
	// TierHost is a hypervisor (host software switch).
	TierHost Tier = iota
	// TierLeaf, TierSpine, TierCore are the switch tiers.
	TierLeaf
	TierSpine
	TierCore
	// TierController is the control plane.
	TierController
)

func (t Tier) String() string {
	switch t {
	case TierHost:
		return "host"
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	case TierCore:
		return "core"
	case TierController:
		return "controller"
	default:
		return "?"
	}
}

// maxPorts bounds the ports a PortMask can represent; switches with
// more ports than this record a truncated mask (realistic Clos radixes
// fit comfortably).
const maxPorts = 256

// PortMask is a fixed-size output-port set, value-typed so recording
// a hop allocates nothing. Bit i corresponds to output port i.
type PortMask [maxPorts / 64]uint64

// Set marks port i; ports beyond the mask capacity are ignored.
func (m *PortMask) Set(i int) {
	if i < 0 || i >= maxPorts {
		return
	}
	m[i/64] |= 1 << (uint(i) % 64)
}

// Test reports whether port i is set.
func (m *PortMask) Test(i int) bool {
	if i < 0 || i >= maxPorts {
		return false
	}
	return m[i/64]&(1<<(uint(i)%64)) != 0
}

// Empty reports whether no port is set.
func (m *PortMask) Empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// BitString renders the first width ports as a binary string, bit 0
// first — the same convention as bitmap.Bitmap.String and the paper's
// figures ("01" = port 1 only on a 2-port switch).
func (m *PortMask) BitString(width int) string {
	if width > maxPorts {
		width = maxPorts
	}
	buf := make([]byte, width)
	for i := 0; i < width; i++ {
		if m.Test(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// Ports returns the set port indices in ascending order.
func (m *PortMask) Ports() []int {
	var out []int
	for i := 0; i < maxPorts; i++ {
		if m.Test(i) {
			out = append(out, i)
		}
	}
	return out
}

// Event is one flight-recorder entry. It is a flat value type — fixed
// arrays, no pointers — so recording a packet-path event performs no
// allocation; only control-plane kinds populate Note (a string), where
// an allocation is acceptable.
type Event struct {
	// Seq is the global record order (assigned by the recorder).
	Seq uint64
	// TS is nanoseconds since the recorder was created.
	TS int64
	// Cat / Kind classify the event.
	Cat  Category
	Kind Kind
	// Tier and Switch identify the emitter (switch ID within its tier,
	// host ID for TierHost, failed-switch ID for failure events).
	Tier   Tier
	Switch int32
	// Rule is what forwarded the packet at a hop.
	Rule RuleKind
	// VNI / Group identify the multicast group the event concerns.
	VNI, Group uint32
	// Ports are the downstream output ports chosen at this hop, and
	// UpPorts the upstream ones; widths give the rendering widths.
	Ports     PortMask
	PortWidth uint16
	UpPorts   PortMask
	UpWidth   uint16
	// Popped is the Elmo header byte delta at this hop: input stream
	// length minus output stream length of the first emitted copy
	// (negative when an INT section grows in flight).
	Popped int32
	// Arg is a kind-specific scalar (see the Kind docs).
	Arg int64
	// Note is kind-specific context, set only on control-plane and
	// encoder events.
	Note string
}

// Recorder is the interface instrumented code emits through. The
// concrete implementation is *FlightRecorder; tests may substitute
// their own. Implementations must make Enabled a cheap, concurrent-
// safe check and Record safe for concurrent use (live fabrics emit
// from many switch goroutines).
type Recorder interface {
	// Enabled reports whether the category is being recorded.
	Enabled(Category) bool
	// Record stores the event if its category is enabled.
	Record(Event)
}

// On is the hot-path guard: instrumented code wraps every event build
// in `if trace.On(r, cat) { ... }`. It costs a nil check plus one
// atomic load and never allocates, which is what keeps the disabled
// path free.
func On(r Recorder, c Category) bool {
	return r != nil && r.Enabled(c)
}

// Config tunes a FlightRecorder.
type Config struct {
	// Capacity is the ring size in events; the recorder keeps the most
	// recent Capacity events. Zero means DefaultCapacity.
	Capacity int
}

// DefaultCapacity is the ring size used when Config.Capacity is zero.
const DefaultCapacity = 8192

// FlightRecorder is the bounded ring-buffer Recorder. The enable mask
// is an atomic word read once per guarded event; the ring itself is a
// single short-critical-section mutex, taken only when tracing is on.
type FlightRecorder struct {
	mask  atomic.Uint32 // enabled-category bitmask; 0 = fully off
	start time.Time

	mu   sync.Mutex
	buf  []Event
	next uint64 // total events stored; buf slot = next % len(buf)
}

// New creates a disabled recorder; call Enable to start recording.
func New(cfg Config) *FlightRecorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &FlightRecorder{
		start: time.Now(),
		buf:   make([]Event, 0, capacity),
	}
}

// Enable turns on recording for the given categories (all categories
// when none are given). Safe to call while traffic flows.
func (r *FlightRecorder) Enable(cats ...Category) {
	if len(cats) == 0 {
		r.mask.Store(allMask)
		return
	}
	m := r.mask.Load()
	for _, c := range cats {
		m |= 1 << c
	}
	r.mask.Store(m)
}

// Disable turns recording fully off; already-recorded events remain
// readable via Snapshot.
func (r *FlightRecorder) Disable() { r.mask.Store(0) }

// Enabled reports whether the category is recording: one atomic load.
func (r *FlightRecorder) Enabled(c Category) bool {
	return r.mask.Load()&(1<<c) != 0
}

// Record stores the event, stamping Seq and TS. Events of a disabled
// category are ignored (instrumentation normally guards with On, but
// Record stays correct without it).
func (r *FlightRecorder) Record(ev Event) {
	if !r.Enabled(ev.Cat) {
		return
	}
	ev.TS = int64(time.Since(r.start))
	r.mu.Lock()
	ev.Seq = r.next
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next%uint64(len(r.buf))] = ev
	}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of events currently held in the ring.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Snapshot returns the retained events in record order (oldest first).
func (r *FlightRecorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	if len(r.buf) < cap(r.buf) || r.next == uint64(len(r.buf)) {
		copy(out, r.buf)
		return out
	}
	// Ring has wrapped: oldest event sits at next % len.
	head := int(r.next % uint64(len(r.buf)))
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}
