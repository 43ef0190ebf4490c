// Package placement simulates the tenant and VM placement of the
// paper's evaluation (§5.1.1): 3,000 tenants whose VM counts follow an
// exponential distribution (min 10, median ~97, max 5,000), placed on
// a Clos fabric with at most VMsPerHost VMs per host, no two VMs of a
// tenant on the same host, and a locality knob P — the maximum number
// of a tenant's VMs packed under one leaf (rack). P=12 models
// clustered placement, P=1 fully dispersed placement.
package placement

import (
	"fmt"
	"math"
	"math/rand"

	"elmo/internal/topology"
)

// PAll disables the per-rack limit (used by the Li et al. baseline
// configuration "no limit on VMs of a tenant per rack").
const PAll = 0

// Config parameterizes a placement run.
type Config struct {
	// Tenants is the number of tenants (paper: 3,000).
	Tenants int
	// VMsPerHost caps the VMs on one host (paper: 20).
	VMsPerHost int
	// MinVMs and MaxVMs clamp the per-tenant VM count (paper: 10 and
	// 5,000).
	MinVMs, MaxVMs int
	// MeanVMs is the mean of the exponential VM-count distribution
	// before clamping (paper reports mean 178.77 after its sampling;
	// an exponential with this mean reproduces the shape).
	MeanVMs float64
	// P is the maximum VMs of one tenant per rack; PAll means
	// unlimited.
	P int
	// Seed makes the placement deterministic.
	Seed int64
}

// VM is one tenant virtual machine placed on a host.
type VM struct {
	Tenant int
	Host   topology.HostID
}

// Tenant is a placed tenant.
type Tenant struct {
	ID  int
	VMs []VM
}

// Size returns the tenant's VM count.
func (t *Tenant) Size() int { return len(t.VMs) }

// Deployment is the result of placing all tenants on a topology.
type Deployment struct {
	Topo    *topology.Topology
	Tenants []Tenant
	// HostLoad[h] is the number of VMs on host h.
	HostLoad []int
}

// TotalVMs returns the number of VMs placed.
func (d *Deployment) TotalVMs() int {
	n := 0
	for _, t := range d.Tenants {
		n += len(t.VMs)
	}
	return n
}

// Place runs the placement. It returns an error if the fabric cannot
// hold the tenants under the constraints.
func Place(topo *topology.Topology, cfg Config) (*Deployment, error) {
	if cfg.Tenants <= 0 || cfg.VMsPerHost <= 0 {
		return nil, fmt.Errorf("placement: Tenants and VMsPerHost must be positive")
	}
	if cfg.MinVMs <= 0 || cfg.MaxVMs < cfg.MinVMs {
		return nil, fmt.Errorf("placement: invalid VM count bounds [%d,%d]", cfg.MinVMs, cfg.MaxVMs)
	}
	if cfg.MeanVMs <= 0 {
		return nil, fmt.Errorf("placement: MeanVMs must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Deployment{
		Topo:     topo,
		Tenants:  make([]Tenant, cfg.Tenants),
		HostLoad: make([]int, topo.NumHosts()),
	}
	pl := &placer{topo: topo, cfg: cfg, rng: rng, d: d}
	for id := 0; id < cfg.Tenants; id++ {
		size := sampleTenantSize(rng, cfg)
		t, err := pl.placeTenant(id, size)
		if err != nil {
			return nil, err
		}
		d.Tenants[id] = t
	}
	return d, nil
}

// sampleTenantSize draws from a clamped exponential distribution.
func sampleTenantSize(rng *rand.Rand, cfg Config) int {
	x := rng.ExpFloat64() * cfg.MeanVMs
	n := int(math.Round(x))
	if n < cfg.MinVMs {
		n = cfg.MinVMs
	}
	if n > cfg.MaxVMs {
		n = cfg.MaxVMs
	}
	return n
}

type placer struct {
	topo *topology.Topology
	cfg  Config
	rng  *rand.Rand
	d    *Deployment
}

// placeTenant implements the paper's strategy: select a pod uniformly
// at random, then repeatedly pick a random leaf within that pod and
// pack up to P VMs of the tenant under it (one per host); only when
// the chosen pod has no spare capacity does the algorithm select
// another pod. Tenants therefore concentrate in as few pods as their
// size requires — which is what keeps multicast groups' pod spans
// small enough for the paper's 2-rule spine budget.
func (p *placer) placeTenant(id, size int) (Tenant, error) {
	t := Tenant{ID: id, VMs: make([]VM, 0, size)}
	usedHosts := make(map[topology.HostID]bool, size)
	remaining := size
	triedPods := make(map[topology.PodID]bool)
	const maxRandomTries = 16
	for remaining > 0 {
		// Select a pod, preferring random probes, falling back to a
		// scan when the fabric is nearly full.
		pod := topology.PodID(-1)
		for try := 0; try < maxRandomTries; try++ {
			cand := topology.PodID(p.rng.Intn(p.topo.NumPods()))
			if !triedPods[cand] {
				pod = cand
				break
			}
		}
		if pod < 0 {
			for c := 0; c < p.topo.NumPods(); c++ {
				if !triedPods[topology.PodID(c)] {
					pod = topology.PodID(c)
					break
				}
			}
		}
		if pod < 0 {
			return t, fmt.Errorf("placement: fabric full placing tenant %d (%d VMs unplaced)", id, remaining)
		}
		// Exhaust the pod: visit its leaves in random order, packing
		// up to P per leaf, until no leaf accepts more.
		leaves := p.rng.Perm(p.topo.Config().LeavesPerPod)
		for _, li := range leaves {
			if remaining == 0 {
				break
			}
			n := p.packUnderLeaf(&t, p.topo.LeafAt(pod, li), usedHosts, remaining)
			remaining -= n
		}
		triedPods[pod] = true
	}
	return t, nil
}

// packUnderLeaf packs up to min(P, want) VMs of the tenant on distinct
// hosts under the leaf, honoring host capacity. It returns the number
// placed.
func (p *placer) packUnderLeaf(t *Tenant, leaf topology.LeafID, usedHosts map[topology.HostID]bool, want int) int {
	limit := want
	if p.cfg.P != PAll {
		// Count the tenant's VMs already under this leaf so revisits
		// don't exceed P in total.
		already := 0
		for _, vm := range t.VMs {
			if p.topo.HostLeaf(vm.Host) == leaf {
				already++
			}
		}
		if room := p.cfg.P - already; room < limit {
			limit = room
		}
	}
	if limit <= 0 {
		return 0
	}
	placed := 0
	hostsPerLeaf := p.topo.Config().HostsPerLeaf
	start := p.rng.Intn(hostsPerLeaf)
	for i := 0; i < hostsPerLeaf && placed < limit; i++ {
		h := p.topo.HostAt(leaf, (start+i)%hostsPerLeaf)
		if usedHosts[h] || p.d.HostLoad[h] >= p.cfg.VMsPerHost {
			continue
		}
		usedHosts[h] = true
		p.d.HostLoad[h]++
		t.VMs = append(t.VMs, VM{Tenant: t.ID, Host: h})
		placed++
	}
	return placed
}

// LeavesOf returns the distinct leaves hosting the given hosts.
func LeavesOf(topo *topology.Topology, hosts []topology.HostID) []topology.LeafID {
	seen := make(map[topology.LeafID]bool)
	var leaves []topology.LeafID
	for _, h := range hosts {
		l := topo.HostLeaf(h)
		if !seen[l] {
			seen[l] = true
			leaves = append(leaves, l)
		}
	}
	return leaves
}
