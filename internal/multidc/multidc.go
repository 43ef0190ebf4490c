// Package multidc implements the paper's §7 multi-datacenter
// deployment sketch: "For multi-datacenter multicast groups, the
// source hypervisor switch in Elmo can send a unicast packet to a
// hypervisor in the target datacenter, which will then multicast it
// using the group's p- and s-rules for that datacenter."
//
// Each datacenter runs its own controller and fabric with its own
// topology (fabrics need not match). A global group is the union of
// per-DC groups plus one relay hypervisor per remote DC; a send costs
// exactly one WAN copy per remote member DC, regardless of how many
// members that DC holds.
package multidc

import (
	"fmt"
	"sort"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// Datacenter is one site: a controller/fabric pair under a name.
type Datacenter struct {
	Name string
	Ctrl *controller.Controller
	Fab  *fabric.Fabric
}

// NewDatacenter builds a site.
func NewDatacenter(name string, topoCfg topology.Config, cfg controller.Config) (*Datacenter, error) {
	topo, err := topology.New(topoCfg)
	if err != nil {
		return nil, err
	}
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		return nil, err
	}
	fab := fabric.New(topo, cfg.SRuleCapacity)
	fab.SetFailures(ctrl.Failures())
	return &Datacenter{Name: name, Ctrl: ctrl, Fab: fab}, nil
}

// Bridge federates datacenters for global groups.
type Bridge struct {
	dcs    map[string]*Datacenter
	order  []string
	groups map[controller.GroupKey]*globalGroup

	// WANBytes counts inter-DC bytes (one relay copy per remote DC
	// per send); WANCopies counts the relay packets.
	WANBytes  int
	WANCopies int
}

type globalGroup struct {
	key     controller.GroupKey
	members map[string][]topology.HostID
	relay   map[string]topology.HostID
}

// NewBridge federates the given sites; names must be unique.
func NewBridge(dcs ...*Datacenter) (*Bridge, error) {
	b := &Bridge{dcs: make(map[string]*Datacenter, len(dcs)), groups: make(map[controller.GroupKey]*globalGroup)}
	for _, dc := range dcs {
		if _, dup := b.dcs[dc.Name]; dup {
			return nil, fmt.Errorf("multidc: duplicate datacenter %q", dc.Name)
		}
		b.dcs[dc.Name] = dc
		b.order = append(b.order, dc.Name)
	}
	sort.Strings(b.order)
	return b, nil
}

// CreateGlobalGroup builds the per-DC groups. members maps a DC name
// to its member hosts (all RoleBoth). In every DC with members, the
// lowest member host doubles as the WAN relay: it is also registered
// as a sender so it can re-multicast arriving WAN copies.
func (b *Bridge) CreateGlobalGroup(key controller.GroupKey, members map[string][]topology.HostID) error {
	if _, dup := b.groups[key]; dup {
		return fmt.Errorf("multidc: group %v exists", key)
	}
	g := &globalGroup{key: key, members: make(map[string][]topology.HostID), relay: make(map[string]topology.HostID)}
	for name, hosts := range members {
		dc, ok := b.dcs[name]
		if !ok {
			return fmt.Errorf("multidc: unknown datacenter %q", name)
		}
		if len(hosts) == 0 {
			continue
		}
		sorted := append([]topology.HostID(nil), hosts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m := make(map[topology.HostID]controller.Role, len(sorted))
		for _, h := range sorted {
			m[h] = controller.RoleBoth
		}
		if _, err := dc.Ctrl.CreateGroup(key, m); err != nil {
			return err
		}
		if _, err := dc.Fab.InstallGroupAt(0, dc.Ctrl, key); err != nil {
			return err
		}
		g.members[name] = sorted
		g.relay[name] = sorted[0]
	}
	if len(g.members) == 0 {
		return fmt.Errorf("multidc: group %v has no members anywhere", key)
	}
	b.groups[key] = g
	return nil
}

// Send multicasts from a sender in the named DC to the global group:
// native multicast locally, one WAN unicast to each remote DC's relay,
// and native multicast from each relay. It returns per-DC deliveries.
func (b *Bridge) Send(fromDC string, sender topology.HostID, key controller.GroupKey, inner []byte) (map[string]*fabric.Delivery, error) {
	g, ok := b.groups[key]
	if !ok {
		return nil, fmt.Errorf("multidc: group %v not found", key)
	}
	src, ok := b.dcs[fromDC]
	if !ok {
		return nil, fmt.Errorf("multidc: unknown datacenter %q", fromDC)
	}
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	out := make(map[string]*fabric.Delivery, len(g.members))
	if _, local := g.members[fromDC]; local {
		d, err := src.Fab.Send(sender, addr, inner)
		if err != nil {
			return nil, err
		}
		out[fromDC] = d
	}
	for _, name := range b.order {
		if name == fromDC {
			continue
		}
		hosts, ok := g.members[name]
		if !ok {
			continue
		}
		dc := b.dcs[name]
		relay := g.relay[name]
		// One WAN copy: outer + inner (the Elmo header is per-DC and
		// re-attached by the relay's hypervisor).
		b.WANBytes += header.OuterSize + len(inner)
		b.WANCopies++
		d, err := dc.Fab.Send(relay, addr, inner)
		if err != nil {
			return nil, err
		}
		// The relay consumes the WAN copy locally too: it is a member.
		d.Received[relay] = inner
		out[name] = d
		_ = hosts
	}
	return out, nil
}

// RemoveGlobalGroup tears the group down everywhere.
func (b *Bridge) RemoveGlobalGroup(key controller.GroupKey) error {
	g, ok := b.groups[key]
	if !ok {
		return fmt.Errorf("multidc: group %v not found", key)
	}
	for name := range g.members {
		dc := b.dcs[name]
		if err := dc.Fab.UninstallGroupAt(0, dc.Ctrl, key); err != nil {
			return err
		}
		if err := dc.Ctrl.RemoveGroup(key); err != nil {
			return err
		}
	}
	delete(b.groups, key)
	return nil
}
