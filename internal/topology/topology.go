// Package topology models the multi-rooted Clos datacenter fabric that
// Elmo targets (paper §3, §5.1.1): a three-tier topology of core,
// spine, and leaf switches grouped into pods, with hosts attached to
// leaves.
//
// The package fixes a deterministic port-numbering convention that the
// header encoding, controller, and data plane all share:
//
//   - Leaf downstream port i attaches host leaf*HostsPerLeaf+i;
//     leaf upstream port j attaches spine j of the leaf's pod.
//   - Spine downstream port i attaches leaf i of the spine's pod;
//     spine upstream port j attaches core j of the spine's plane.
//   - Core downstream port p attaches (pod p, spine plane(core)).
//
// Cores are organized into planes, one plane per spine position: spine
// s of every pod connects to the CoresPerPlane cores of plane s. This
// matches Facebook-Fabric-style multi-rooted Clos fabrics and makes
// the "one logical core" abstraction of the paper exact: every core can
// reach every pod through exactly one downstream port.
package topology

import "fmt"

// Identifier types. All are dense indices starting at zero, global
// across the fabric (not per pod).
type (
	// HostID identifies a physical host (hypervisor).
	HostID int
	// LeafID identifies a leaf (top-of-rack) switch.
	LeafID int
	// SpineID identifies a spine switch.
	SpineID int
	// CoreID identifies a core switch.
	CoreID int
	// PodID identifies a pod. A pod is also the identifier of its
	// logical spine switch in Elmo's p-rule encoding (D2).
	PodID int
)

// Config describes the dimensions of a three-tier Clos fabric.
type Config struct {
	// Pods is the number of pods.
	Pods int
	// SpinesPerPod is the number of spine switches in each pod, and
	// also the number of core planes.
	SpinesPerPod int
	// LeavesPerPod is the number of leaf switches in each pod.
	LeavesPerPod int
	// HostsPerLeaf is the number of hosts attached to each leaf.
	HostsPerLeaf int
	// CoresPerPlane is the number of core switches per plane; each
	// spine has one uplink to each core of its plane.
	CoresPerPlane int
}

// Validate checks that every dimension is positive.
func (c Config) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("topology: %s must be positive, got %d", name, v)
		}
		return nil
	}
	if err := check("Pods", c.Pods); err != nil {
		return err
	}
	if err := check("SpinesPerPod", c.SpinesPerPod); err != nil {
		return err
	}
	if err := check("LeavesPerPod", c.LeavesPerPod); err != nil {
		return err
	}
	if err := check("HostsPerLeaf", c.HostsPerLeaf); err != nil {
		return err
	}
	return check("CoresPerPlane", c.CoresPerPlane)
}

// PaperExample is the running example of the paper's Figure 3: four
// pods and cores, two spines and leaves per pod, eight hosts per leaf.
// (Four cores = two planes of two.)
func PaperExample() Config {
	return Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 2, HostsPerLeaf: 8, CoresPerPlane: 2}
}

// FacebookFabric is the evaluation topology of §5.1.1: 12 pods, 48
// leaves per pod, 48 hosts per leaf (27,648 hosts), 4 spines per pod
// and 4 cores per plane.
func FacebookFabric() Config {
	return Config{Pods: 12, SpinesPerPod: 4, LeavesPerPod: 48, HostsPerLeaf: 48, CoresPerPlane: 4}
}

// Topology is an immutable description of a Clos fabric built from a
// Config. All lookups are O(1) arithmetic; the struct holds no
// per-element storage, so fabrics of any size are free to create.
type Topology struct {
	cfg Config
}

// New builds a topology, validating the configuration.
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Topology{cfg: cfg}, nil
}

// MustNew is New, panicking on invalid configuration. For tests and
// examples with literal configs.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the fabric dimensions.
func (t *Topology) Config() Config { return t.cfg }

// NumHosts returns the total number of hosts.
func (t *Topology) NumHosts() int {
	return t.cfg.Pods * t.cfg.LeavesPerPod * t.cfg.HostsPerLeaf
}

// NumLeaves returns the total number of leaf switches.
func (t *Topology) NumLeaves() int { return t.cfg.Pods * t.cfg.LeavesPerPod }

// NumSpines returns the total number of spine switches.
func (t *Topology) NumSpines() int { return t.cfg.Pods * t.cfg.SpinesPerPod }

// NumCores returns the total number of core switches.
func (t *Topology) NumCores() int { return t.cfg.SpinesPerPod * t.cfg.CoresPerPlane }

// NumPods returns the number of pods.
func (t *Topology) NumPods() int { return t.cfg.Pods }

// NumSwitches returns the total physical switch count.
func (t *Topology) NumSwitches() int { return t.NumLeaves() + t.NumSpines() + t.NumCores() }

// --- Host relations ---

// HostLeaf returns the leaf switch the host attaches to.
func (t *Topology) HostLeaf(h HostID) LeafID {
	t.checkHost(h)
	return LeafID(int(h) / t.cfg.HostsPerLeaf)
}

// HostPod returns the pod containing the host.
func (t *Topology) HostPod(h HostID) PodID { return t.LeafPod(t.HostLeaf(h)) }

// HostPort returns the downstream port index of the host on its leaf.
func (t *Topology) HostPort(h HostID) int {
	t.checkHost(h)
	return int(h) % t.cfg.HostsPerLeaf
}

// HostAt returns the host attached to the given leaf downstream port.
func (t *Topology) HostAt(l LeafID, port int) HostID {
	t.checkLeaf(l)
	if port < 0 || port >= t.cfg.HostsPerLeaf {
		panic(fmt.Sprintf("topology: leaf port %d out of range", port))
	}
	return HostID(int(l)*t.cfg.HostsPerLeaf + port)
}

// --- Leaf relations ---

// LeafPod returns the pod containing the leaf.
func (t *Topology) LeafPod(l LeafID) PodID {
	t.checkLeaf(l)
	return PodID(int(l) / t.cfg.LeavesPerPod)
}

// LeafIndexInPod returns the leaf's index within its pod, which is
// also its downstream port number on every spine of the pod.
func (t *Topology) LeafIndexInPod(l LeafID) int {
	t.checkLeaf(l)
	return int(l) % t.cfg.LeavesPerPod
}

// LeafAt returns the leaf at the given index within a pod.
func (t *Topology) LeafAt(p PodID, idx int) LeafID {
	t.checkPod(p)
	if idx < 0 || idx >= t.cfg.LeavesPerPod {
		panic(fmt.Sprintf("topology: leaf index %d out of range", idx))
	}
	return LeafID(int(p)*t.cfg.LeavesPerPod + idx)
}

// LeafUpstream returns the spine reached by the leaf's upstream port.
// Port j of any leaf in pod p connects to spine j of pod p.
func (t *Topology) LeafUpstream(l LeafID, port int) SpineID {
	if port < 0 || port >= t.cfg.SpinesPerPod {
		panic(fmt.Sprintf("topology: leaf upstream port %d out of range", port))
	}
	return t.SpineAt(t.LeafPod(l), port)
}

// --- Spine relations ---

// SpinePod returns the pod containing the spine.
func (t *Topology) SpinePod(s SpineID) PodID {
	t.checkSpine(s)
	return PodID(int(s) / t.cfg.SpinesPerPod)
}

// SpinePlane returns the spine's plane: its index within the pod,
// which selects the set of cores it uplinks to.
func (t *Topology) SpinePlane(s SpineID) int {
	t.checkSpine(s)
	return int(s) % t.cfg.SpinesPerPod
}

// SpineAt returns the spine at the given plane within a pod.
func (t *Topology) SpineAt(p PodID, plane int) SpineID {
	t.checkPod(p)
	if plane < 0 || plane >= t.cfg.SpinesPerPod {
		panic(fmt.Sprintf("topology: spine plane %d out of range", plane))
	}
	return SpineID(int(p)*t.cfg.SpinesPerPod + plane)
}

// PodSpines returns the pod's spines as the ID range [first, end): a
// pod's spines are numbered consecutively, plane by plane.
func (t *Topology) PodSpines(p PodID) (first, end SpineID) {
	first = t.SpineAt(p, 0)
	return first, first + SpineID(t.cfg.SpinesPerPod)
}

// SpineDownstream returns the leaf reached by the spine's downstream
// port.
func (t *Topology) SpineDownstream(s SpineID, port int) LeafID {
	return t.LeafAt(t.SpinePod(s), port)
}

// SpineUpstream returns the core reached by the spine's upstream port.
// Port j of a spine in plane k connects to core k*CoresPerPlane+j.
func (t *Topology) SpineUpstream(s SpineID, port int) CoreID {
	if port < 0 || port >= t.cfg.CoresPerPlane {
		panic(fmt.Sprintf("topology: spine upstream port %d out of range", port))
	}
	return CoreID(t.SpinePlane(s)*t.cfg.CoresPerPlane + port)
}

// --- Core relations ---

// CorePlane returns the plane the core belongs to.
func (t *Topology) CorePlane(c CoreID) int {
	t.checkCore(c)
	return int(c) / t.cfg.CoresPerPlane
}

// CoreDownstream returns the spine reached by the core's downstream
// port for the given pod: spine plane(c) of that pod.
func (t *Topology) CoreDownstream(c CoreID, pod PodID) SpineID {
	return t.SpineAt(pod, t.CorePlane(c))
}

// --- Port widths (bitmap widths for the header encoding) ---

// LeafDownWidth is the width of a leaf downstream bitmap.
func (t *Topology) LeafDownWidth() int { return t.cfg.HostsPerLeaf }

// LeafUpWidth is the width of a leaf upstream bitmap.
func (t *Topology) LeafUpWidth() int { return t.cfg.SpinesPerPod }

// SpineDownWidth is the width of a spine downstream bitmap, and of a
// logical-spine (pod) p-rule bitmap.
func (t *Topology) SpineDownWidth() int { return t.cfg.LeavesPerPod }

// SpineUpWidth is the width of a spine upstream bitmap.
func (t *Topology) SpineUpWidth() int { return t.cfg.CoresPerPlane }

// CoreDownWidth is the width of the logical-core bitmap: one bit per
// pod.
func (t *Topology) CoreDownWidth() int { return t.cfg.Pods }

// --- Validation helpers ---

func (t *Topology) checkHost(h HostID) {
	if int(h) < 0 || int(h) >= t.NumHosts() {
		panic(fmt.Sprintf("topology: host %d out of range [0,%d)", h, t.NumHosts()))
	}
}

func (t *Topology) checkLeaf(l LeafID) {
	if int(l) < 0 || int(l) >= t.NumLeaves() {
		panic(fmt.Sprintf("topology: leaf %d out of range [0,%d)", l, t.NumLeaves()))
	}
}

func (t *Topology) checkSpine(s SpineID) {
	if int(s) < 0 || int(s) >= t.NumSpines() {
		panic(fmt.Sprintf("topology: spine %d out of range [0,%d)", s, t.NumSpines()))
	}
}

func (t *Topology) checkCore(c CoreID) {
	if int(c) < 0 || int(c) >= t.NumCores() {
		panic(fmt.Sprintf("topology: core %d out of range [0,%d)", c, t.NumCores()))
	}
}

func (t *Topology) checkPod(p PodID) {
	if int(p) < 0 || int(p) >= t.cfg.Pods {
		panic(fmt.Sprintf("topology: pod %d out of range [0,%d)", p, t.cfg.Pods))
	}
}

// String describes the fabric dimensions.
func (t *Topology) String() string {
	return fmt.Sprintf("clos(pods=%d spines/pod=%d leaves/pod=%d hosts/leaf=%d cores/plane=%d: %d hosts, %d switches)",
		t.cfg.Pods, t.cfg.SpinesPerPod, t.cfg.LeavesPerPod, t.cfg.HostsPerLeaf, t.cfg.CoresPerPlane,
		t.NumHosts(), t.NumSwitches())
}
