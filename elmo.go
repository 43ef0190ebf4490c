// Package elmo is a Go implementation of Elmo — source-routed
// multicast for multi-tenant datacenters (Shahbaz et al., SIGCOMM
// 2019).
//
// Elmo encodes a multicast group's forwarding tree inside each packet
// as a list of p-rules (port bitmaps plus logical switch identifiers),
// so network switches keep little or no per-group state. A
// logically-centralized controller computes compact encodings with a
// clustering algorithm bounded by a header budget, spills overflow to
// per-switch s-rules while group-table capacity lasts, and falls back
// to default p-rules beyond that. Hypervisor switches push the
// precomputed header onto tenant packets; leaf, spine, and core
// switches parse, replicate, and pop the header sections at line rate.
//
// This package is the public facade: it wires the controller and the
// emulated data plane together behind a small API. The subsystems live
// in internal packages:
//
//	internal/topology    Clos fabric model
//	internal/bitmap      port bitmaps (p-rule payload)
//	internal/header      Elmo wire format + VXLAN outer encapsulation
//	internal/cluster     MIN-K-UNION clustering (Algorithm 1)
//	internal/controller  group lifecycle, rule generation, failures
//	internal/dataplane   hypervisor and network switch pipelines
//	internal/fabric      emulated network, baselines, byte accounting
//	internal/placement   tenant/VM placement workloads
//	internal/groupgen    multicast group workloads (WVE, Uniform)
//	internal/sim         §5.1 scalability experiment harness
//	internal/churn       §5.1.3 churn & failure experiments
//	internal/apps        §5.2 pub-sub / telemetry / encap experiments
//	internal/baselines   Li et al., BIER, SGM, IP-multicast models
//
// Quickstart:
//
//	cl, err := elmo.NewCluster(elmo.PaperExampleTopology(), elmo.DefaultConfig(2))
//	key := elmo.GroupKey{Tenant: 1, Group: 1}
//	cl.CreateGroup(key, map[elmo.HostID]elmo.Role{0: elmo.RoleBoth, 40: elmo.RoleBoth})
//	delivery, err := cl.Send(0, key, []byte("hello"))
package elmo

import (
	"fmt"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

// Re-exported identifier and configuration types.
type (
	// HostID identifies a physical host.
	HostID = topology.HostID
	// LeafID identifies a leaf switch.
	LeafID = topology.LeafID
	// SpineID identifies a spine switch.
	SpineID = topology.SpineID
	// CoreID identifies a core switch.
	CoreID = topology.CoreID
	// TopologyConfig describes the Clos fabric dimensions.
	TopologyConfig = topology.Config
	// Config bounds the controller's encodings (header budget, rule
	// limits, redundancy R, s-rule capacity Fmax).
	Config = controller.Config
	// GroupKey identifies a multicast group (tenant VNI + group index).
	GroupKey = controller.GroupKey
	// Role is a member's participation: sender, receiver, or both.
	Role = controller.Role
	// Delivery reports the outcome of a multicast send; the one Send
	// returns is valid until the next Send.
	Delivery = fabric.Delivery
)

// Member roles.
const (
	RoleSender   = controller.RoleSender
	RoleReceiver = controller.RoleReceiver
	RoleBoth     = controller.RoleBoth
)

// PaperExampleTopology returns the paper's Figure 3 running example:
// 4 pods × 2 spines × 2 leaves × 8 hosts.
func PaperExampleTopology() TopologyConfig { return topology.PaperExample() }

// FacebookFabricTopology returns the evaluation fabric: 12 pods, 48
// leaves/pod, 48 hosts/leaf (27,648 hosts).
func FacebookFabricTopology() TopologyConfig { return topology.FacebookFabric() }

// DefaultConfig returns the paper's encoding configuration (325-byte
// header budget, 30 leaf + 2 spine p-rules, 10,000-entry group tables)
// at redundancy limit r.
func DefaultConfig(r int) Config { return controller.PaperConfig(r) }

// Cluster couples a controller with an emulated fabric: the minimal
// deployment of Elmo. It is safe for single-goroutine use; wrap it in
// your own synchronization to share. Its controller holds no durable
// leadership, so it writes the data plane at epoch 0 — which a fabric
// that a fenced leader (internal/durable) has written rejects.
type Cluster struct {
	Topo *topology.Topology
	Ctrl *controller.Controller
	Fab  *fabric.Fabric
}

// NewCluster builds the fabric and controller.
func NewCluster(topoCfg TopologyConfig, cfg Config) (*Cluster, error) {
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
	return &Cluster{Topo: topo, Ctrl: ctrl, Fab: fab}, nil
}

// CreateGroup registers a group and installs its data-plane state.
func (c *Cluster) CreateGroup(key GroupKey, members map[HostID]Role) error {
	if _, err := c.Ctrl.CreateGroup(key, members); err != nil {
		return err
	}
	noPath, err := c.Fab.InstallGroupAt(0, c.Ctrl, key)
	if err != nil {
		return err
	}
	if len(noPath) > 0 {
		return fmt.Errorf("elmo: senders %v have no healthy path", noPath)
	}
	return nil
}

// RemoveGroup tears a group down in both planes.
func (c *Cluster) RemoveGroup(key GroupKey) error {
	if err := c.Fab.UninstallGroupAt(0, c.Ctrl, key); err != nil {
		return err
	}
	return c.Ctrl.RemoveGroup(key)
}

// Join adds (or extends) a member and refreshes the group's
// data-plane state.
func (c *Cluster) Join(key GroupKey, host HostID, role Role) error {
	// Withdraw current data-plane state, apply the membership change,
	// and reinstall — the controller tracks the precise switch deltas.
	if err := c.Fab.UninstallGroupAt(0, c.Ctrl, key); err != nil {
		return err
	}
	if err := c.Ctrl.Join(key, host, role); err != nil {
		c.reinstall(key)
		return err
	}
	return c.install(key)
}

// Leave removes a member role and refreshes the group's data-plane
// state.
func (c *Cluster) Leave(key GroupKey, host HostID, role Role) error {
	if err := c.Fab.UninstallGroupAt(0, c.Ctrl, key); err != nil {
		return err
	}
	if err := c.Ctrl.Leave(key, host, role); err != nil {
		c.reinstall(key)
		return err
	}
	return c.install(key)
}

func (c *Cluster) install(key GroupKey) error {
	noPath, err := c.Fab.InstallGroupAt(0, c.Ctrl, key)
	if err != nil {
		return err
	}
	if len(noPath) > 0 {
		return fmt.Errorf("elmo: senders %v have no healthy path", noPath)
	}
	return nil
}

func (c *Cluster) reinstall(key GroupKey) {
	if c.Ctrl.Group(key) != nil {
		_, _ = c.Fab.InstallGroupAt(0, c.Ctrl, key)
	}
}

// Send multicasts an inner frame from a sender to the group.
//
// The Delivery belongs to the cluster's fabric and stays valid until the
// cluster's next Send, which reuses it: a caller that keeps any part of
// it (Received, Telemetry, a record slice) past that copies it. Send is
// for one goroutine at a time.
func (c *Cluster) Send(sender HostID, key GroupKey, inner []byte) (*Delivery, error) {
	if err := c.checkHost(sender); err != nil {
		return nil, err
	}
	return c.Fab.Send(sender, dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}, inner)
}

// FailSpine marks a spine failed and refreshes the sender headers of
// impacted groups, returning how many groups were impacted.
func (c *Cluster) FailSpine(s SpineID) (int, error) {
	if err := checkSwitch("spine", int(s), c.Topo.NumSpines()); err != nil {
		return 0, err
	}
	return c.Ctrl.FailSpine(s), c.refreshAllSenders()
}

// FailCore marks a core failed, refreshing impacted groups.
func (c *Cluster) FailCore(co CoreID) (int, error) {
	if err := checkSwitch("core", int(co), c.Topo.NumCores()); err != nil {
		return 0, err
	}
	return c.Ctrl.FailCore(co), c.refreshAllSenders()
}

// RepairSpine restores a spine and re-enables multipathing.
func (c *Cluster) RepairSpine(s SpineID) (int, error) {
	if err := checkSwitch("spine", int(s), c.Topo.NumSpines()); err != nil {
		return 0, err
	}
	return c.Ctrl.RepairSpine(s), c.refreshAllSenders()
}

// RepairCore restores a core.
func (c *Cluster) RepairCore(co CoreID) (int, error) {
	if err := checkSwitch("core", int(co), c.Topo.NumCores()); err != nil {
		return 0, err
	}
	return c.Ctrl.RepairCore(co), c.refreshAllSenders()
}

// checkSwitch rejects a switch id outside [0, n). Ids reach the failure
// and repair calls from outside the program (elmo-ctl), and an unknown
// switch must be an ordinary error before the shared failure set is
// touched, not a panic in the topology or a failed switch that does not
// exist.
func checkSwitch(tier string, id, n int) error {
	if id < 0 || id >= n {
		return fmt.Errorf("elmo: %s %d out of range [0,%d)", tier, id, n)
	}
	return nil
}

// checkHost is checkSwitch for a sender: Fabric.Send indexes its
// hypervisors by the host id it is handed.
func (c *Cluster) checkHost(h HostID) error {
	return checkSwitch("host", int(h), c.Topo.NumHosts())
}

// refreshAllSenders reinstalls sender flows for every group (the
// controller computed new upstream rules); senders left without a path
// fall back to unicast at their hypervisor and are skipped here.
func (c *Cluster) refreshAllSenders() error {
	for _, key := range c.GroupKeys() {
		if _, err := c.Fab.InstallGroupAt(0, c.Ctrl, key); err != nil {
			return err
		}
	}
	return nil
}

// GroupKeys lists the live groups.
func (c *Cluster) GroupKeys() []GroupKey {
	return c.Ctrl.GroupKeys()
}
