package controller

import (
	"elmo/internal/header"
	"elmo/internal/topology"
)

// Live introspection: read-only snapshots of the controller's state
// for the ops plane (internal/obs). Every view is taken under the
// controller's read lock, so a snapshot is a consistent cut — no group
// is half-installed, and the group count matches the summaries listed
// (GroupState fields are written under the write lock, so the read
// lock suffices).

// GroupSummary is one group's topline for /debug/elmo/groups.
type GroupSummary struct {
	VNI        uint32 `json:"vni"`
	Group      uint32 `json:"group"`
	Members    int    `json:"members"`
	Senders    int    `json:"senders"`
	Receivers  int    `json:"receivers"`
	Exact      bool   `json:"exact"`
	UsesSRules bool   `json:"uses_srules"`
	Redundancy int    `json:"redundancy"`
}

// MemberInfo is one member with its role, for the group detail view.
type MemberInfo struct {
	Host topology.HostID `json:"host"`
	Role string          `json:"role"`
}

// TreeLeaf is one receiver leaf of the group's multicast tree.
type TreeLeaf struct {
	Leaf  topology.LeafID `json:"leaf"`
	Pod   topology.PodID  `json:"pod"`
	Ports []int           `json:"ports"`
}

// EncodingInfo breaks down how the group's tree is encoded: p-rules
// carried in the packet header versus s-rules installed in switch
// group tables, defaults, and the redundancy (spurious transmissions)
// the sharing introduced. SpineSRules and LeafSRules count the pods and
// leaves that hold the group's s-rule, as the p-rule fields count
// rules.
type EncodingInfo struct {
	Pods            []int `json:"pods"`
	SpinePRules     int   `json:"spine_prules"`
	LeafPRules      int   `json:"leaf_prules"`
	SpineDefault    bool  `json:"spine_default"`
	LeafDefault     bool  `json:"leaf_default"`
	SpineSRules     int   `json:"spine_srules"`
	LeafSRules      int   `json:"leaf_srules"`
	Redundancy      int   `json:"redundancy"`
	LeafRedundancy  int   `json:"leaf_redundancy"`
	SpineRedundancy int   `json:"spine_redundancy"`
}

// SenderHeaderInfo is the assembled header size for one sender.
type SenderHeaderInfo struct {
	Sender topology.HostID `json:"sender"`
	Bytes  int             `json:"bytes"`
	Err    string          `json:"err,omitempty"`
}

// GroupDetail is the full group view for /debug/elmo/group/{id}.
type GroupDetail struct {
	GroupSummary
	MemberList []MemberInfo       `json:"member_list"`
	Tree       []TreeLeaf         `json:"tree"`
	Encoding   EncodingInfo       `json:"encoding"`
	Headers    []SenderHeaderInfo `json:"headers"`
}

// ControllerInfo is the controller-wide view for /debug/elmo/controller:
// the live group count and the rule-update counters per switch class,
// from one consistent cut.
type ControllerInfo struct {
	TotalGroups       int `json:"total_groups"`
	HypervisorUpdates int `json:"hypervisor_updates"`
	LeafUpdates       int `json:"leaf_updates"`
	SpineUpdates      int `json:"spine_updates"`
	CoreUpdates       int `json:"core_updates"`
}

func roleString(r Role) string {
	switch {
	case r.CanSend() && r.CanReceive():
		return "both"
	case r.CanSend():
		return "sender"
	case r.CanReceive():
		return "receiver"
	default:
		return "none"
	}
}

// summarize builds a GroupSummary from a group the caller has locked.
func summarize(g *GroupState) GroupSummary {
	s := GroupSummary{VNI: g.Key.Tenant, Group: g.Key.Group, Members: len(g.Members)}
	for _, m := range g.Members {
		if m.Role.CanSend() {
			s.Senders++
		}
		if m.Role.CanReceive() {
			s.Receivers++
		}
	}
	if g.Enc != nil {
		s.Exact = g.Enc.Exact()
		s.UsesSRules = g.Enc.UsesSRules()
		s.Redundancy = g.Enc.Redundancy()
	}
	return s
}

// InspectGroups returns summaries for up to limit groups (0 = all) in
// ascending (vni, group) order, plus the total live-group count, from
// one consistent cut.
func (c *Controller) InspectGroups(limit int) (groups []GroupSummary, total int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := c.sortedKeysLocked()
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	for _, k := range keys {
		groups = append(groups, summarize(c.groups[k]))
	}
	return groups, len(c.groups)
}

// InspectGroup returns the full detail for one group, or false if it
// does not exist. Header sizes are assembled per sender with the live
// failure set, exactly as HeaderFor would.
func (c *Controller) InspectGroup(key GroupKey) (*GroupDetail, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, ok := c.groups[key]
	if !ok {
		return nil, false
	}
	d := &GroupDetail{GroupSummary: summarize(g)}
	for _, m := range g.Members {
		d.MemberList = append(d.MemberList, MemberInfo{Host: m.Host, Role: roleString(m.Role)})
	}
	e := g.Enc
	if e != nil {
		var t Tree
		t.Read(c.topo, g.Members)
		d.Encoding = EncodingInfo{
			Pods:            make([]int, 0, len(t.pods)),
			SpinePRules:     header.RuleCount(e.DSpineSection),
			LeafPRules:      header.RuleCount(e.DLeafSection),
			SpineDefault:    e.DSpineDefault,
			LeafDefault:     e.DLeafDefault,
			SpineSRules:     len(e.SpineSRules),
			LeafSRules:      len(e.LeafSRules),
			Redundancy:      e.Redundancy(),
			LeafRedundancy:  e.LeafRedundancy,
			SpineRedundancy: e.SpineRedundancy,
		}
		for _, pod := range t.pods {
			d.Encoding.Pods = append(d.Encoding.Pods, int(pod))
		}
		for i, leaf := range t.leaves {
			d.Tree = append(d.Tree, TreeLeaf{Leaf: leaf, Pod: c.topo.LeafPod(leaf), Ports: t.leafBms[i].Ports()})
		}
		var scratch SenderScratch
		var stream []byte
		for _, h := range d.MemberList {
			if h.Role != "sender" && h.Role != "both" {
				continue
			}
			info := SenderHeaderInfo{Sender: h.Host}
			var err error
			stream, err = AppendSenderStream(stream[:0], &scratch, c.topo, c.cfg, e, &t, h.Host, c.failures)
			if err != nil {
				info.Err = err.Error()
			} else {
				info.Bytes = len(stream)
			}
			d.Headers = append(d.Headers, info)
		}
	}
	return d, true
}

// InspectController returns the live group count and the update totals
// per switch class, from one consistent cut.
func (c *Controller) InspectController() ControllerInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return ControllerInfo{
		TotalGroups:       len(c.groups),
		HypervisorUpdates: sumCounts(c.stats.Hypervisor),
		LeafUpdates:       sumCounts(c.stats.Leaf),
		SpineUpdates:      sumCounts(c.stats.Spine),
		CoreUpdates:       c.stats.Core,
	}
}
