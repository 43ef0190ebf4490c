package chaos

import (
	"elmo/internal/dataplane"
	"elmo/internal/topology"
)

// CrashHost severs every link touching a host's hypervisor — the
// chaos-model equivalent of the machine dying. It enables the injector
// if needed (a zero-probability Config means only overrides fire).
func (inj *Injector) CrashHost(h topology.HostID) {
	inj.SetSwitchLoss(dataplane.LinkHost, int32(h), 1.0)
	inj.Enable()
}
