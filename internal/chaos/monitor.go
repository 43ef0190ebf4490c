package chaos

import (
	"elmo/internal/bitmap"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/header"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// MonitorConfig tunes failure detection and recovery.
type MonitorConfig struct {
	// Tracer receives detect-fail/detect-repair events.
	Tracer trace.Recorder
}

const (
	// failAfter is how many consecutive lost probe rounds declare a
	// switch failed; repairAfter how many consecutive successful rounds
	// declare it repaired.
	failAfter   = 2
	repairAfter = 2
)

// MonitoredFlow is one (group, sender) whose flow the monitor keeps
// consistent with detected fabric health.
type MonitoredFlow struct {
	Key    controller.GroupKey
	Sender topology.HostID
}

// Transition is one health verdict the monitor reached.
type Transition struct {
	Tier dataplane.LinkTier
	ID   int32
	Down bool
	// Impacted is the controller's count of groups the declaration
	// touched.
	Impacted int
}

// probe is a pinned source-routed liveness packet through one switch.
type probe struct {
	src    topology.HostID
	target topology.HostID
	addr   dataplane.GroupAddr
}

// switchHealth is the detection state for one monitored switch.
type switchHealth struct {
	fails int
	oks   int
	down  bool
}

// Monitor detects switch failures from probe loss — rather than being
// told via FailSpine/FailCore — and drives recovery: on a detection it
// declares the failure to the controller, recomputes the headers of
// every watched flow, and degrades flows the controller can no longer
// route (ErrNoPath) to unicast by removing their sender flows; on
// detected repair it reverses all of it.
//
// Each spine probe is a source-routed packet pinned through that spine
// (explicit upstream ports, §3.3 mechanism) between two hosts of its
// pod; each core probe is pinned through that core between two pods.
// Probes ride dataplane.ProbeVNI: the fabrics let them bypass
// *declared* failure drops, so what a probe measures is the physical
// device (the injector's loss overrides), which is exactly the
// detection-vs-declaration distinction.
//
// The monitor knows no leader's epoch: it writes its probe and refresh
// flows at epoch 0, which a fabric a fenced leader has written rejects.
type Monitor struct {
	topo *topology.Topology
	ctrl *controller.Controller
	fab  *fabric.Fabric
	cfg  MonitorConfig

	spineProbes []probe
	coreProbes  []probe
	spines      []switchHealth
	cores       []switchHealth

	flows    []MonitoredFlow
	degraded map[MonitoredFlow]bool

	// Rounds counts probe rounds run; RefreshFailures counts flow
	// refreshes the controller or the hypervisor refused.
	Rounds          int
	RefreshFailures int
}

// NewMonitor builds the monitor and installs its probe flows (sender
// flows on probe source hosts, receive filters on probe targets).
func NewMonitor(ctrl *controller.Controller, fab *fabric.Fabric, cfg MonitorConfig) (*Monitor, error) {
	m := &Monitor{
		topo:     fab.Topology(),
		ctrl:     ctrl,
		fab:      fab,
		cfg:      cfg,
		degraded: make(map[MonitoredFlow]bool),
	}
	m.spines = make([]switchHealth, m.topo.NumSpines())
	m.cores = make([]switchHealth, m.topo.NumCores())
	if err := m.buildSpineProbes(); err != nil {
		return nil, err
	}
	if err := m.buildCoreProbes(); err != nil {
		return nil, err
	}
	return m, nil
}

// probeAddr allocates the probe group address for a monitored switch;
// spine s gets group s, core c gets group NumSpines + c.
func (m *Monitor) probeAddr(group int) dataplane.GroupAddr {
	return dataplane.GroupAddr{VNI: dataplane.ProbeVNI, Group: uint32(group)}
}

// buildSpineProbes pins one probe through every spine: up from the
// pod's first leaf on the spine's plane, down to a second leaf (or the
// same leaf in single-leaf pods).
func (m *Monitor) buildSpineProbes() error {
	lay := header.LayoutFor(m.topo)
	m.spineProbes = make([]probe, m.topo.NumSpines())
	for s := 0; s < m.topo.NumSpines(); s++ {
		spine := topology.SpineID(s)
		pod := m.topo.SpinePod(spine)
		plane := m.topo.SpinePlane(spine)
		srcLeaf := m.topo.LeafAt(pod, 0)
		targetIdx := 0
		if m.topo.Config().LeavesPerPod > 1 {
			targetIdx = 1
		}
		targetLeaf := m.topo.LeafAt(pod, targetIdx)
		src := m.topo.HostAt(srcLeaf, 0)
		target := m.topo.HostAt(targetLeaf, 0)
		hdr := &header.Header{
			ULeaf:  &header.UpstreamRule{Down: bitmap.New(lay.LeafDown), Up: bitmap.FromPorts(lay.LeafUp, plane)},
			USpine: &header.UpstreamRule{Down: bitmap.FromPorts(lay.SpineDown, targetIdx), Up: bitmap.New(lay.SpineUp)},
			DLeaf: []header.PRule{{
				Switches: []uint16{uint16(targetLeaf)},
				Bitmap:   bitmap.FromPorts(lay.LeafDown, 0),
			}},
		}
		p := probe{src: src, target: target, addr: m.probeAddr(s)}
		if err := m.installProbe(p, hdr); err != nil {
			return err
		}
		m.spineProbes[s] = p
	}
	return nil
}

// buildCoreProbes pins one probe through every core, from pod 0 to
// pod 1 (single-pod fabrics carry no core traffic and get no core
// probes).
func (m *Monitor) buildCoreProbes() error {
	lay := header.LayoutFor(m.topo)
	m.coreProbes = make([]probe, m.topo.NumCores())
	if m.topo.NumPods() < 2 {
		return nil
	}
	cfg := m.topo.Config()
	for c := 0; c < m.topo.NumCores(); c++ {
		core := topology.CoreID(c)
		plane := m.topo.CorePlane(core)
		idxInPlane := c - plane*cfg.CoresPerPlane
		srcPod, dstPod := topology.PodID(0), topology.PodID(1)
		srcLeaf := m.topo.LeafAt(srcPod, 0)
		dstLeaf := m.topo.LeafAt(dstPod, 0)
		src := m.topo.HostAt(srcLeaf, 0)
		target := m.topo.HostAt(dstLeaf, 0)
		pods := bitmap.FromPorts(lay.CoreDown, int(dstPod))
		hdr := &header.Header{
			ULeaf:  &header.UpstreamRule{Down: bitmap.New(lay.LeafDown), Up: bitmap.FromPorts(lay.LeafUp, plane)},
			USpine: &header.UpstreamRule{Down: bitmap.New(lay.SpineDown), Up: bitmap.FromPorts(lay.SpineUp, idxInPlane)},
			Core:   &pods,
			DSpine: []header.PRule{{
				Switches: []uint16{uint16(dstPod)},
				Bitmap:   bitmap.FromPorts(lay.SpineDown, 0),
			}},
			DLeaf: []header.PRule{{
				Switches: []uint16{uint16(dstLeaf)},
				Bitmap:   bitmap.FromPorts(lay.LeafDown, 0),
			}},
		}
		p := probe{src: src, target: target, addr: m.probeAddr(m.topo.NumSpines() + c)}
		if err := m.installProbe(p, hdr); err != nil {
			return err
		}
		m.coreProbes[c] = p
	}
	return nil
}

// installProbe encodes a hand-built probe header into its source's
// hypervisor and opens the receive filter on its target.
func (m *Monitor) installProbe(p probe, hdr *header.Header) error {
	stream, err := header.Encode(header.LayoutFor(m.topo), hdr)
	if err != nil {
		return err
	}
	if err := m.fab.Hypervisors[p.src].InstallSenderFlowAt(0, p.addr, stream); err != nil {
		return err
	}
	return m.fab.Hypervisors[p.target].SetReceivingAt(0, p.addr, true)
}

// Watch registers a flow the monitor refreshes on every detected
// failure or repair.
func (m *Monitor) Watch(key controller.GroupKey, sender topology.HostID) {
	m.flows = append(m.flows, MonitoredFlow{Key: key, Sender: sender})
}

// Degraded reports whether a watched flow is currently degraded to
// unicast (no failure-free multicast path).
func (m *Monitor) Degraded(key controller.GroupKey, sender topology.HostID) bool {
	return m.degraded[MonitoredFlow{Key: key, Sender: sender}]
}

// SpineDown / CoreDown report the monitor's current belief.
func (m *Monitor) SpineDown(s topology.SpineID) bool { return m.spines[s].down }
func (m *Monitor) CoreDown(c topology.CoreID) bool   { return m.cores[c].down }

// sendProbe fires one probe and reports whether it arrived.
func (m *Monitor) sendProbe(p probe) bool {
	d, err := m.fab.Send(p.src, p.addr, []byte("elmo-probe"))
	if err != nil {
		return false
	}
	_, ok := d.Received[p.target]
	return ok
}

// ProbeRound probes every monitored switch once, updates the detection
// state machines, and acts on any transition (declare to the
// controller, refresh watched flows). It returns the transitions that
// fired this round.
func (m *Monitor) ProbeRound() []Transition {
	m.Rounds++
	var out []Transition
	for s := range m.spineProbes {
		ok := m.sendProbe(m.spineProbes[s])
		if tr, fired := m.judge(&m.spines[s], ok, dataplane.LinkSpine, int32(s)); fired {
			out = append(out, tr)
		}
	}
	for c := range m.coreProbes {
		p := m.coreProbes[c]
		if p.addr.VNI == 0 {
			continue // single-pod fabric: no core probes
		}
		// A core probe transits one spine in each pod it crosses; while
		// either is believed down the probe's fate says nothing about
		// the core, so skip the round (gray-failure attribution).
		plane := m.topo.CorePlane(topology.CoreID(c))
		if m.spines[m.topo.SpineAt(0, plane)].down || m.spines[m.topo.SpineAt(1, plane)].down {
			continue
		}
		ok := m.sendProbe(p)
		if tr, fired := m.judge(&m.cores[c], ok, dataplane.LinkCore, int32(c)); fired {
			out = append(out, tr)
		}
	}
	return out
}

// judge advances one switch's detection state machine and acts on a
// verdict flip.
func (m *Monitor) judge(h *switchHealth, ok bool, tier dataplane.LinkTier, id int32) (Transition, bool) {
	if ok {
		h.oks++
		h.fails = 0
		if h.down && h.oks >= repairAfter {
			h.down = false
			return m.declare(tier, id, false, h.oks), true
		}
		return Transition{}, false
	}
	h.fails++
	h.oks = 0
	if !h.down && h.fails >= failAfter {
		h.down = true
		return m.declare(tier, id, true, h.fails), true
	}
	return Transition{}, false
}

// declare tells the controller about a detected transition and
// refreshes every watched flow.
func (m *Monitor) declare(tier dataplane.LinkTier, id int32, down bool, rounds int) Transition {
	var impacted int
	switch {
	case tier == dataplane.LinkSpine && down:
		impacted = m.ctrl.FailSpine(topology.SpineID(id))
	case tier == dataplane.LinkSpine && !down:
		impacted = m.ctrl.RepairSpine(topology.SpineID(id))
	case tier == dataplane.LinkCore && down:
		impacted = m.ctrl.FailCore(topology.CoreID(id))
	default:
		impacted = m.ctrl.RepairCore(topology.CoreID(id))
	}
	kind := trace.KindDetectRepair
	if down {
		kind = trace.KindDetectFail
	}
	if trace.On(m.cfg.Tracer, trace.CatChaos) {
		m.cfg.Tracer.Record(trace.Event{
			Cat: trace.CatChaos, Kind: kind,
			Tier: traceTier(tier), Switch: id, Arg: int64(rounds),
		})
	}
	m.refreshFlows()
	return Transition{Tier: tier, ID: id, Down: down, Impacted: impacted}
}

// refreshFlows recomputes and reinstalls every watched flow's header
// under the controller's current failure view, one attempt per flow.
// Every refusal the fabric can return (a fenced epoch, a malformed
// stream) is deterministic, so it counts in RefreshFailures instead of
// being retried. Flows the controller cannot route (ErrNoPath /
// ErrLegacyPath) have their sender flows removed so publishers degrade
// to unicast until a later refresh restores them.
func (m *Monitor) refreshFlows() {
	for _, fl := range m.flows {
		addr := dataplane.GroupAddr{VNI: fl.Key.Tenant, Group: fl.Key.Group}
		hv := m.fab.Hypervisors[fl.Sender]
		stream, err := m.ctrl.SenderStream(fl.Key, fl.Sender)
		switch {
		case err == controller.ErrNoPath || err == controller.ErrLegacyPath:
			if err = hv.RemoveSenderFlowAt(0, addr); err == nil {
				m.degraded[fl] = true
			}
		case err == nil:
			if err = hv.InstallSenderFlowAt(0, addr, stream); err == nil {
				delete(m.degraded, fl)
			}
		}
		if err != nil {
			m.RefreshFailures++
		}
	}
}
