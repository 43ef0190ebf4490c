package dataplane

// Fault injection contract. The concrete injector lives in
// internal/chaos; the interface sits here so every fabric tier can
// hold one without importing the chaos package (which itself imports
// the fabrics for its health monitor). The fabrics consult the
// injector at each link crossing; the verdict is applied before the
// receiving element processes the packet, modeling loss, duplication,
// corruption, and delay on the wire rather than in the switch logic.

// LinkTier identifies the network element class at one end of a link.
type LinkTier uint8

const (
	// LinkHost is a host hypervisor endpoint.
	LinkHost LinkTier = iota
	// LinkLeaf, LinkSpine, LinkCore are the switch tiers.
	LinkLeaf
	LinkSpine
	LinkCore
)

func (t LinkTier) String() string {
	switch t {
	case LinkHost:
		return "host"
	case LinkLeaf:
		return "leaf"
	case LinkSpine:
		return "spine"
	case LinkCore:
		return "core"
	default:
		return "?"
	}
}

// Link is one directed link crossing: the packet leaves From (of tier
// FromTier) toward To (of tier ToTier). IDs are the fabric-global
// switch or host indices.
type Link struct {
	FromTier LinkTier
	From     int32
	ToTier   LinkTier
	To       int32
}

// FaultVerdict is what the injector decided for one crossing. Zero
// value means "deliver untouched". Drop wins over everything else;
// Duplicate means the fabric forwards a second, independent copy;
// Corrupt means the fabric flips bytes in the wire encoding (tiers
// that forward structs re-marshal to apply it); DelaySteps holds the
// packet for that many fabric steps (sync fabric: forwarding-loop
// iterations; live fabrics: milliseconds) before delivery.
type FaultVerdict struct {
	Drop       bool
	Duplicate  bool
	Corrupt    bool
	DelaySteps int32
}

// FaultInjector is consulted at every link crossing — by Probe.Cross,
// its only caller, which skips it unless Active. Implementations must
// make Active a single cheap check and Cross allocation-free: the
// disabled path of an attached injector must not change forwarding
// cost at all.
type FaultInjector interface {
	// Active reports whether any fault can currently fire; when false
	// the probe skips Cross entirely.
	Active() bool
	// Cross returns the verdict for one packet crossing the link. The
	// group address lets injectors discriminate probe traffic.
	Cross(l Link, vni, group uint32) FaultVerdict
	// CorruptWire flips bytes of a marshaled frame in place,
	// deterministically per injector state.
	CorruptWire(frame []byte)
}

// ProbeVNI is the reserved VNI the chaos health monitor sends its
// liveness probes on. Probe packets bypass the fabric's declared-
// failure drops (a declared failure models the controller's *belief*;
// probes measure the physical device, which the injector models), so
// repair of a declared-failed switch remains detectable.
const ProbeVNI uint32 = 0xFFFFFE
