package chaos

import (
	"testing"

	"elmo/internal/controller"
	"elmo/internal/fabric"
	"elmo/internal/topology"
)

// chaosFixture builds the paper-example fabric with an attached (but
// not yet enabled) injector, and one installed multicast group:
// tenant 9 group 1, sender host 0, the figure-3 receiver spread.
func chaosFixture(t *testing.T, cfg Config) (*topology.Topology, *controller.Controller, *fabric.Fabric, *Injector, controller.GroupKey) {
	t.Helper()
	topo := topology.MustNew(topology.PaperExample())
	ccfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(topo, ccfg.SRuleCapacity)
	fab.SetFailures(ctrl.Failures())
	inj := New(cfg)
	fab.SetInjector(inj)

	key := controller.GroupKey{Tenant: 9, Group: 1}
	members := map[topology.HostID]controller.Role{fixtureSender: controller.RoleSender}
	for _, h := range fixtureReceivers {
		members[h] = controller.RoleReceiver
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		t.Fatal(err)
	}
	return topo, ctrl, fab, inj, key
}

const fixtureSender = topology.HostID(0)

// fixtureReceivers spans the sender's leaf (1), the pod's other leaf
// (9), and three remote pods (17, 40, 56) — exercising every tier.
var fixtureReceivers = []topology.HostID{1, 9, 17, 40, 56}
