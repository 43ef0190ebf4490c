// Package groupgen generates multicast-group workloads over a placed
// deployment, following the paper's evaluation setup (§5.1.1):
//
//   - The total number of groups is fixed (1M at paper scale) and each
//     tenant receives groups in proportion to its VM count.
//   - Group sizes follow either the IBM WebSphere Virtual Enterprise
//     (WVE) production distribution — average size 60, ~80% of groups
//     below 61 members, ~0.6% above 700 — or a Uniform distribution
//     between the minimum size and the tenant size.
//   - Every group has at least MinSize (5) members; members are VMs of
//     the owning tenant chosen uniformly without replacement, capped
//     by the tenant size.
package groupgen

import (
	"fmt"
	"math/rand"
	"sort"

	"elmo/internal/placement"
	"elmo/internal/topology"
)

// Distribution selects the group-size distribution.
type Distribution int

const (
	// WVE is the IBM WebSphere Virtual Enterprise trace distribution.
	WVE Distribution = iota
	// Uniform draws sizes uniformly in [MinSize, tenantSize].
	Uniform
)

func (d Distribution) String() string {
	switch d {
	case WVE:
		return "WVE"
	case Uniform:
		return "Uniform"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Config parameterizes group generation.
type Config struct {
	// TotalGroups across all tenants (paper: 1,000,000).
	TotalGroups int
	// MinSize is the minimum members per group (paper: 5).
	MinSize int
	// Dist selects the size distribution.
	Dist Distribution
	// Seed makes generation deterministic.
	Seed int64
}

// Group is one multicast group: the owning tenant and the member VMs'
// hosts. A host appears once per member VM placed on it; because
// placement never co-locates two VMs of a tenant, hosts are distinct.
type Group struct {
	// ID is the group index, unique across the deployment; the
	// provider maps it to the tenant-scoped group IP.
	ID uint32
	// Tenant owns the group.
	Tenant int
	// Hosts are the member hosts, ascending.
	Hosts []topology.HostID
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.Hosts) }

// Generate produces the group workload for a deployment.
func Generate(dep *placement.Deployment, cfg Config) ([]Group, error) {
	if cfg.TotalGroups < 0 {
		return nil, fmt.Errorf("groupgen: negative TotalGroups")
	}
	if cfg.MinSize < 1 {
		return nil, fmt.Errorf("groupgen: MinSize must be >= 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	totalVMs := dep.TotalVMs()
	if totalVMs == 0 {
		return nil, fmt.Errorf("groupgen: deployment has no VMs")
	}
	groups := make([]Group, 0, cfg.TotalGroups)
	// Apportion groups to tenants proportionally to size (largest
	// remainder method keeps the total exact).
	counts := apportion(dep, cfg.TotalGroups)
	id := uint32(0)
	for ti := range dep.Tenants {
		tenant := &dep.Tenants[ti]
		n := counts[ti]
		for i := 0; i < n; i++ {
			size := sampleSize(rng, cfg, tenant.Size())
			g := Group{ID: id, Tenant: tenant.ID, Hosts: pickMembers(rng, tenant, size)}
			id++
			groups = append(groups, g)
		}
	}
	return groups, nil
}

// apportion distributes total groups over tenants proportionally to VM
// count using largest remainders.
func apportion(dep *placement.Deployment, total int) []int {
	totalVMs := dep.TotalVMs()
	counts := make([]int, len(dep.Tenants))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(dep.Tenants))
	assigned := 0
	for i := range dep.Tenants {
		exact := float64(total) * float64(dep.Tenants[i].Size()) / float64(totalVMs)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; assigned < total && i < len(rems); i++ {
		counts[rems[i].idx]++
		assigned++
	}
	return counts
}

// sampleSize draws a group size, clamped to [MinSize, tenantSize]. If
// the tenant is smaller than MinSize the group takes the whole tenant.
func sampleSize(rng *rand.Rand, cfg Config, tenantSize int) int {
	max := tenantSize
	if max < cfg.MinSize {
		return max
	}
	var s int
	switch cfg.Dist {
	case Uniform:
		s = cfg.MinSize + rng.Intn(max-cfg.MinSize+1)
	default: // WVE
		s = sampleWVE(rng)
	}
	if s < cfg.MinSize {
		s = cfg.MinSize
	}
	if s > max {
		s = max
	}
	return s
}

// sampleWVE reproduces the WVE trace's group-size distribution from
// its published moments: average size 60, ~80% of groups below 61
// members, ~0.6% above 700, and — via the P=1 evaluation's "77.8% of
// groups have less than 36 switches" (≈ members + pods + core on the
// logical tree) — ~78% of groups below ~30 members. The bulk is small
// groups in [5,30); a thin band covers [30,61); the upper-middle band
// is a shifted exponential truncated at 700; the heavy tail is uniform
// in (700, 1364] (1,364 = the trace's group count, used as the scale
// ceiling). Overall mean ≈ 60.
func sampleWVE(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.778:
		return 5 + rng.Intn(26) // [5, 30], mean ≈ 17.5
	case u < 0.80:
		return 31 + rng.Intn(30) // [31, 60]
	case u < 0.994:
		// Shifted exponential, mean 170 beyond 61, truncated at 700:
		// band mean ≈ 210.
		for {
			x := 61 + int(rng.ExpFloat64()*170)
			if x <= 700 {
				return x
			}
		}
	default:
		return 701 + rng.Intn(1364-701+1) // heavy tail, mean ≈ 1032
	}
}

// pickMembers samples 'size' distinct VMs of the tenant (partial
// Fisher–Yates) and returns their hosts in ascending order.
func pickMembers(rng *rand.Rand, t *placement.Tenant, size int) []topology.HostID {
	n := t.Size()
	idx := rng.Perm(n)[:size]
	hosts := make([]topology.HostID, size)
	for i, j := range idx {
		hosts[i] = t.VMs[j].Host
	}
	sort.Slice(hosts, func(a, b int) bool { return hosts[a] < hosts[b] })
	return hosts
}

// Stats summarizes a generated workload.
type Stats struct {
	Groups    int
	MeanSize  float64
	MaxSize   int
	MinSize   int
	Below61   float64 // fraction of groups with < 61 members
	Above700  float64 // fraction of groups with > 700 members
	MeanLeafs float64 // mean distinct leaves per group
}

// Summarize computes workload statistics (used by tests and the
// experiment harness to validate the distribution shape).
func Summarize(topo *topology.Topology, groups []Group) Stats {
	s := Stats{Groups: len(groups), MinSize: 1 << 30}
	if len(groups) == 0 {
		s.MinSize = 0
		return s
	}
	var sumSize, sumLeaves int
	var below, above int
	for i := range groups {
		n := groups[i].Size()
		sumSize += n
		if n < 61 {
			below++
		}
		if n > 700 {
			above++
		}
		if n > s.MaxSize {
			s.MaxSize = n
		}
		if n < s.MinSize {
			s.MinSize = n
		}
		sumLeaves += len(placement.LeavesOf(topo, groups[i].Hosts))
	}
	s.MeanSize = float64(sumSize) / float64(len(groups))
	s.Below61 = float64(below) / float64(len(groups))
	s.Above700 = float64(above) / float64(len(groups))
	s.MeanLeafs = float64(sumLeaves) / float64(len(groups))
	return s
}
