package fabric

import (
	"fmt"
	"sync"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// This file is the one walk that writes a group into the data plane.
// Every device message carries the writing controller's leadership
// epoch — 0 for a controller without durable leadership — and the
// first device that fences it aborts the walk with its
// *dataplane.StaleEpochError: the caller is a deposed leader and
// should stand down, not keep writing.
//
// The walk has an encoding level (s-rules and receive filters, all
// the streaming §5.1 harness needs: it computes millions of encodings
// without retaining controller state, installing each only for the
// duration of its measurement) and a group level on top of it that
// adds the sender flows of a controller-held group.

// InstallEncodingAt pushes one group's s-rules and receiver filters
// into the data plane directly from its encoding and its members, in
// ascending host order: leaves, then spines, each in ascending ID order,
// then the receiving members. A switch's entry holds its bitmap in the
// group's tree.
func (f *Fabric) InstallEncodingAt(epoch uint64, a dataplane.GroupAddr, enc *controller.Encoding, members []controller.Member) error {
	ws := walkPool.Get().(*walkScratch)
	defer walkPool.Put(ws)
	ws.tree.Read(f.topo, members)
	if err := f.installSRules(epoch, a, enc, &ws.tree); err != nil {
		return err
	}
	return f.setReceiving(epoch, a, members, true)
}

// UninstallEncodingAt reverses InstallEncodingAt, in the same order.
func (f *Fabric) UninstallEncodingAt(epoch uint64, a dataplane.GroupAddr, enc *controller.Encoding, members []controller.Member) error {
	if err := f.removeSRules(epoch, a, enc); err != nil {
		return err
	}
	return f.setReceiving(epoch, a, members, false)
}

// setReceiving sets or clears the receive filter of every receiving
// member, in member order.
func (f *Fabric) setReceiving(epoch uint64, a dataplane.GroupAddr, members []controller.Member, on bool) error {
	for _, m := range members {
		if !m.Role.CanReceive() {
			continue
		}
		if err := f.Hypervisors[m.Host].SetReceivingAt(epoch, a, on); err != nil {
			return err
		}
	}
	return nil
}

// installSRules writes the encoding's s-rules: leaves, then spines, each
// in ascending ID order. An entry is the switch's bitmap in the group's
// tree, which the device copies.
func (f *Fabric) installSRules(epoch uint64, a dataplane.GroupAddr, enc *controller.Encoding, tree *controller.Tree) error {
	for _, leaf := range enc.LeafSRules {
		ports, _ := tree.Leaf(leaf)
		if err := f.Leaves[leaf].InstallSRuleAt(epoch, a, ports); err != nil {
			return err
		}
	}
	for _, pod := range enc.SpineSRules {
		leaves, _ := tree.Pod(pod)
		first, end := controller.SRuleSpines(f.topo, pod)
		for s := first; s < end; s++ {
			if err := f.Spines[s].InstallSRuleAt(epoch, a, leaves); err != nil {
				return err
			}
		}
	}
	return nil
}

// removeSRules removes what installSRules writes, in the same order.
func (f *Fabric) removeSRules(epoch uint64, a dataplane.GroupAddr, enc *controller.Encoding) error {
	for _, leaf := range enc.LeafSRules {
		if err := f.Leaves[leaf].RemoveSRuleAt(epoch, a); err != nil {
			return err
		}
	}
	for _, pod := range enc.SpineSRules {
		first, end := controller.SRuleSpines(f.topo, pod)
		for s := first; s < end; s++ {
			if err := f.Spines[s].RemoveSRuleAt(epoch, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkScratch is the working memory of an install walk: the group's
// tree, read from its members, and the sender scratch. Nothing a device
// keeps aliases it (a device clones an s-rule bitmap, a hypervisor copies
// a stream), so a walk returns it to walkPool when done; walks may run
// at once, each with its own.
type walkScratch struct {
	tree   controller.Tree
	sender controller.SenderScratch
}

var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// InstallGroupAt pushes a group's state into the data plane: s-rules to
// leaf/spine tables, receive filters to receiver hypervisors, and
// sender flows (precomputed header streams) to sender hypervisors. A
// sender disconnected by failures (controller.ErrNoPath) or behind a
// legacy leaf loses whatever flow an earlier install left and is
// returned; its hypervisor degrades to unicast until repair (§3.3).
//
// The s-rules and receive filters are per group; per sender the walk
// only specialises the shared encoding into that sender's header
// stream, every sender into the same stack buffer — the hypervisor
// keeps its own copy of the bytes it is sent. The group's tree is read
// from its members once per walk, into a walkScratch: with a warm pool,
// what the walk allocates is what the devices keep.
func (f *Fabric) InstallGroupAt(epoch uint64, ctrl *controller.Controller, key controller.GroupKey) (noPath []topology.HostID, err error) {
	g := ctrl.Group(key)
	if g == nil {
		return nil, fmt.Errorf("fabric: group %v not found", key)
	}
	a := addr(key)
	// Both member walks below go in ascending host order (the member
	// order), so the device a stale epoch aborts at and the order of
	// noPath are fixed.
	topo, cfg, failures := ctrl.Topology(), ctrl.Config(), ctrl.Failures()
	ws := walkPool.Get().(*walkScratch)
	defer walkPool.Put(ws)
	ws.tree.Read(topo, g.Members)
	if err := f.installSRules(epoch, a, g.Enc, &ws.tree); err != nil {
		return nil, err
	}
	if err := f.setReceiving(epoch, a, g.Members, true); err != nil {
		return nil, err
	}
	// Room for any header a programmable switch can parse; a longer
	// one only costs the append a heap buffer.
	var room [header.RMTHeaderVectorSize]byte
	buf := room[:0]
	for _, m := range g.Members {
		if !m.Role.CanSend() {
			continue
		}
		h := m.Host
		stream, err := controller.AppendSenderStream(buf, &ws.sender, topo, cfg, g.Enc, &ws.tree, h, failures)
		if err == controller.ErrNoPath || err == controller.ErrLegacyPath {
			noPath = append(noPath, h)
			if err := f.Hypervisors[h].RemoveSenderFlowAt(epoch, a); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := f.Hypervisors[h].InstallSenderFlowAt(epoch, a, stream); err != nil {
			return nil, err
		}
		buf = stream[:0]
	}
	return noPath, nil
}

// UninstallGroupAt removes a group's data-plane state, clearing the
// receive filter and the sender flow on every member whatever its
// current role, members in ascending host order.
func (f *Fabric) UninstallGroupAt(epoch uint64, ctrl *controller.Controller, key controller.GroupKey) error {
	g := ctrl.Group(key)
	if g == nil {
		return fmt.Errorf("fabric: group %v not found", key)
	}
	a := addr(key)
	if err := f.removeSRules(epoch, a, g.Enc); err != nil {
		return err
	}
	for _, m := range g.Members {
		if err := f.Hypervisors[m.Host].SetReceivingAt(epoch, a, false); err != nil {
			return err
		}
	}
	for _, m := range g.Members {
		if err := f.Hypervisors[m.Host].RemoveSenderFlowAt(epoch, a); err != nil {
			return err
		}
	}
	return nil
}
