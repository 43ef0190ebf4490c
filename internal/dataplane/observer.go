package dataplane

// Flow observation contract. The concrete observer lives in
// internal/obs; the interface sits here so the fabrics can hold one
// without importing the ops plane (which itself imports the controller
// for its introspection handlers). The contract mirrors FaultInjector:
// Active must be a single cheap check, and the disabled path of an
// attached observer must not change forwarding cost at all — Probe, the
// only caller, guards every call, so a nil or disabled observer costs
// one nil check plus one atomic load per site and never allocates.

// SendSample is the per-send accounting the sync forwarder hands to
// Probe.Sent at the single per-send site (after the forwarding loop
// drains), which feeds the per-send counters and the observer. Only
// multicast sends report one: the baseline unicast/overlay walks are
// observed link by link and never call ObserveSend. Fields are plain
// values so passing the struct allocates nothing.
type SendSample struct {
	// VNI and Group identify the multicast group.
	VNI, Group uint32
	// Delivered counts member hosts that received the packet; Lost
	// counts copies dropped in flight (failed switches, chaos drops,
	// unparseable corrupted headers).
	Delivered, Lost int
	// Bytes is the total wire bytes this send pushed across links.
	Bytes int64
	// Hops counts switch traversals.
	Hops int
	// Links counts link transmissions; Spurious the copies non-member
	// hypervisors filtered; Duplicates the members reached twice.
	Links, Spurious, Duplicates int
	// AtFailed and Malformed are the parts of Lost the per-send
	// counters keep apart: copies dropped at declared-failed switches
	// and copies a switch could not parse.
	AtFailed, Malformed int
	// Nanos is the wall-clock forwarding time of the send.
	Nanos int64
}

// FlowObserver receives per-link and per-send traffic accounting from
// the fabrics. ObserveLink fires once per directed link crossing (the
// same crossings LinkBytes counts); ObserveSend fires once per send.
// Implementations must tolerate concurrent calls: the live fabrics
// forward from many goroutines.
type FlowObserver interface {
	// Active reports whether observation is currently enabled; when
	// false the probe skips the observe calls entirely.
	Active() bool
	// ObserveLink records bytes crossing one directed link.
	ObserveLink(l Link, bytes int)
	// ObserveSend records the outcome of one completed send.
	ObserveSend(s SendSample)
}
