package dataplane

import "elmo/internal/telemetry"

// tierCounters are the handles one device tier bumps, shared by every
// device of the tier (counters are atomic, so concurrent device
// goroutines may bump them). Hosts use fenced only.
type tierCounters struct {
	fenced      *telemetry.Counter
	packets     *telemetry.Counter
	copies      *telemetry.Counter
	ruleHits    [4]*telemetry.Counter // indexed by trace.RuleKind
	drops       [4]*telemetry.Counter // indexed by DropReason
	popped      *telemetry.Counter
	headerBytes *telemetry.Counter
}

// Metrics is the data path's telemetry handle bundle, interned once at
// construction so every increment is a single atomic add. Only Probe
// bumps the handles; a Probe without Metrics costs each report one
// branch.
type Metrics struct {
	tiers [4]tierCounters // indexed by LinkTier

	// Hypervisor events.
	encapsulated     *telemetry.Counter
	delivered        *telemetry.Counter
	filtered         *telemetry.Counter
	headerBytesAdded *telemetry.Counter

	// Per-send totals of the sync forwarder (Probe.Sent) and the chaos
	// verdicts of every tier (Probe.Cross: drop, dup, corrupt, delay).
	linkBytes  *telemetry.Counter
	links      *telemetry.Counter
	hops       *telemetry.Counter
	lost       *telemetry.Counter
	spurious   *telemetry.Counter
	duplicates *telemetry.Counter
	malformed  *telemetry.Counter
	verdicts   [4]*telemetry.Counter

	// WireMalformed and HostQueueDrops count a wire transport's
	// unparseable frames and full host queues in that transport's own
	// families; its NewMetrics fills them in, and nil leaves them
	// uncounted.
	WireMalformed  *telemetry.Counter
	HostQueueDrops *telemetry.Counter
}

// NewMetrics registers (or re-attaches to) the dataplane and fabric
// metric families in reg and returns the interned handles.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	packets := reg.CounterVec("elmo_dataplane_packets_total",
		"Packets entering a switch pipeline, by Clos tier.", "tier")
	copies := reg.CounterVec("elmo_dataplane_copies_total",
		"Packet copies emitted by switch pipelines, by Clos tier.", "tier")
	hits := reg.CounterVec("elmo_dataplane_rule_hits_total",
		"Forwarding decisions by matching rule stage (p-rule, s-rule, default).", "tier", "rule")
	drops := reg.CounterVec("elmo_dataplane_drops_total",
		"Packets dropped in a switch pipeline, by reason.", "tier", "reason")
	popped := reg.CounterVec("elmo_dataplane_prules_popped_total",
		"Hops that consumed (popped or stripped) Elmo header sections.", "tier")
	hdrBytes := reg.CounterVec("elmo_dataplane_header_bytes_popped_total",
		"Elmo header bytes consumed by switch pipelines, by tier.", "tier")
	fenced := reg.CounterVec("elmo_fencing_rejected_total",
		"Install/update messages rejected because they carried a stale leadership epoch, by tier.", "tier")
	verdicts := reg.CounterVec("elmo_fabric_fault_verdicts_total",
		"Chaos-injector verdicts applied at link crossings.", "verdict")

	m := &Metrics{
		encapsulated: reg.Counter("elmo_host_encapsulated_total",
			"Multicast packets encapsulated by hypervisors."),
		delivered: reg.Counter("elmo_host_delivered_total",
			"Packets accepted by hypervisors for local member VMs."),
		filtered: reg.Counter("elmo_host_filtered_total",
			"Spurious packets filtered by hypervisors on receive."),
		headerBytesAdded: reg.Counter("elmo_host_header_bytes_added_total",
			"Elmo header bytes added at encapsulation."),
		linkBytes: reg.Counter("elmo_fabric_link_bytes_total",
			"Bytes crossing fabric links (host NICs included)."),
		links: reg.Counter("elmo_fabric_link_crossings_total",
			"Link transmissions (one per copy per link)."),
		hops: reg.Counter("elmo_fabric_hops_total",
			"Switch traversals during forwarding."),
		lost: reg.Counter("elmo_fabric_lost_total",
			"Copies dropped at failed switches."),
		spurious: reg.Counter("elmo_fabric_spurious_total",
			"Host deliveries filtered by non-member hypervisors."),
		duplicates: reg.Counter("elmo_fabric_duplicates_total",
			"Member hosts that received more than one copy."),
		malformed: reg.Counter("elmo_fabric_malformed_total",
			"Copies dropped because a switch could not parse them."),
	}
	for _, t := range []LinkTier{LinkLeaf, LinkSpine, LinkCore} {
		name := t.String()
		c := &m.tiers[t]
		c.fenced = fenced.With(name)
		c.packets = packets.With(name)
		c.copies = copies.With(name)
		c.popped = popped.With(name)
		c.headerBytes = hdrBytes.With(name)
		// Indexed by trace.RuleKind and DropReason.
		for r, label := range []string{"none", "prule", "srule", "default"} {
			c.ruleHits[r] = hits.With(name, label)
		}
		for r, label := range []string{"none", "no_rule", "ttl", "malformed"} {
			c.drops[r] = drops.With(name, label)
		}
	}
	m.tiers[LinkHost].fenced = fenced.With(LinkHost.String())
	for i, v := range []string{"drop", "duplicate", "corrupt", "delay"} {
		m.verdicts[i] = verdicts.With(v)
	}
	return m
}
