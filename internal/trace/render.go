package trace

import (
	"fmt"
	"strings"
)

// RenderPath reconstructs the packet-path of a group's send from the
// hop and host events in evs, in record order:
//
//	group vni=1 g=1: host 0 → leaf 0 [p-rule ports=01100000 up=1] →
//	spine 0 [p-rule ...] → core 1 [p-rule ...] → ... → host 1 ✓ → ...
//
// Hops appear in the order the switches processed the packet (the
// fabric's breadth-first traversal), so the chain is the flattened
// multicast tree: every switch the packet visited, with the rule kind
// (p-rule / s-rule / default) that forwarded it there and the header
// bytes popped. Deliveries render as "host N ✓", spurious copies a
// hypervisor filtered as "host N ✗", drops as "leaf N ✗drop". The
// synchronous fabric delivers a send's host copies after its walk, so
// its hosts close the chain; the wire tiers interleave them.
//
// Pass the events of one send (e.g. a Snapshot taken around a single
// Send call); events of other groups are skipped via the vni/group
// filter. An empty result means no matching events.
func RenderPath(evs []Event, vni, group uint32) string {
	var prefix string
	parts := make([]string, 0, len(evs))
	for _, ev := range evs {
		if ev.VNI != vni || ev.Group != group {
			continue
		}
		switch ev.Kind {
		case KindEncap:
			if prefix == "" {
				prefix = fmt.Sprintf("group vni=%d g=%d: host %d", vni, group, ev.Switch)
			}
		case KindHop:
			parts = append(parts, hopString(ev))
		case KindDrop:
			parts = append(parts, fmt.Sprintf("%s %d ✗drop", ev.Tier, ev.Switch))
		case KindDeliver:
			parts = append(parts, fmt.Sprintf("host %d ✓", ev.Switch))
		case KindFilter:
			parts = append(parts, fmt.Sprintf("host %d ✗", ev.Switch))
		case KindHostDrop:
			parts = append(parts, fmt.Sprintf("host %d ✗queue-full", ev.Switch))
		case KindFaultDrop:
			parts = append(parts, fmt.Sprintf("%s %d ✗fault-drop", ev.Tier, ev.Switch))
		case KindFaultDup:
			parts = append(parts, fmt.Sprintf("%s %d ⧉fault-dup", ev.Tier, ev.Switch))
		case KindFaultCorrupt:
			parts = append(parts, fmt.Sprintf("%s %d ≈fault-corrupt", ev.Tier, ev.Switch))
		case KindFaultDelay:
			parts = append(parts, fmt.Sprintf("%s %d …fault-delay+%d", ev.Tier, ev.Switch, ev.Arg))
		}
	}
	if prefix == "" && len(parts) == 0 {
		return ""
	}
	if prefix == "" {
		prefix = fmt.Sprintf("group vni=%d g=%d:", vni, group)
	}
	if len(parts) == 0 {
		return prefix
	}
	return prefix + " → " + strings.Join(parts, " → ")
}

// hopString renders one switch traversal: tier, switch ID, the rule
// kind that matched, the chosen output ports, and the header delta.
func hopString(ev Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d [%s", ev.Tier, ev.Switch, ev.Rule)
	if ev.PortWidth > 0 && !ev.Ports.Empty() {
		fmt.Fprintf(&sb, " ports=%s", ev.Ports.BitString(int(ev.PortWidth)))
	}
	if ev.UpWidth > 0 && !ev.UpPorts.Empty() {
		fmt.Fprintf(&sb, " up=%s", ev.UpPorts.BitString(int(ev.UpWidth)))
	}
	if ev.Popped != 0 {
		fmt.Fprintf(&sb, " popped=%dB", ev.Popped)
	}
	sb.WriteByte(']')
	return sb.String()
}

// RenderControl renders the control-plane and encoder events of evs as
// one line each, in record order — the controller's flight log during
// a churn or failure window.
func RenderControl(evs []Event) string {
	var sb strings.Builder
	for _, ev := range evs {
		detect := ev.Kind == KindDetectFail || ev.Kind == KindDetectRepair
		if ev.Cat != CatControl && ev.Cat != CatEncoder && !detect {
			continue
		}
		fmt.Fprintf(&sb, "%-12s", ev.Kind)
		if ev.VNI != 0 || ev.Group != 0 {
			fmt.Fprintf(&sb, " vni=%d g=%d", ev.VNI, ev.Group)
		}
		switch ev.Kind {
		case KindJoin, KindLeave:
			fmt.Fprintf(&sb, " host=%d", ev.Arg)
		case KindCreateGroup, KindRemoveGroup:
			fmt.Fprintf(&sb, " members=%d", ev.Arg)
		case KindRecompute:
			if ev.Arg >= 0 {
				fmt.Fprintf(&sb, " changed-host=%d", ev.Arg)
			}
		case KindFailSpine, KindRepairSpine:
			fmt.Fprintf(&sb, " spine=%d impacted=%d", ev.Switch, ev.Arg)
		case KindFailCore, KindRepairCore:
			fmt.Fprintf(&sb, " core=%d impacted=%d", ev.Switch, ev.Arg)
		case KindDetectFail, KindDetectRepair:
			fmt.Fprintf(&sb, " %s=%d rounds=%d", ev.Tier, ev.Switch, ev.Arg)
		}
		if ev.Note != "" {
			fmt.Fprintf(&sb, " %s", ev.Note)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
