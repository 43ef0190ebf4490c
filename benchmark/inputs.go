package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
)

// All inputs derive from -seed; the system sees only generated inputs.

// benchTopo is the shared bench fabric: 2,048 hosts, 128 leaves, 32
// spines, 16 cores.
var benchTopo = TopoConfig{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4}

// benchTenants places 200 tenants of 10..400 VMs (mean 60) on it.
var benchTenants = tenantParams{Tenants: 200, MinVMs: 10, MaxVMs: 400, MeanVMs: 60}

// udpTopo is small because the UDP tier opens one socket and one reader
// goroutine per device: 128 hosts, 16 leaves, 8 spines, 4 cores.
var udpTopo = TopoConfig{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 4, HostsPerLeaf: 8, CoresPerPlane: 2}

// udpTenants fits P=4 on 16 racks: at most 64 VMs per tenant.
var udpTenants = tenantParams{Tenants: 24, MinVMs: 10, MaxVMs: 60, MeanVMs: 25}

// frameTemplate is the 64-byte inner frame every workload sends: the
// smallest size, where per-packet cost dominates.
var frameTemplate = func() []byte {
	f := make([]byte, 64)
	for i := range f {
		f[i] = byte(i*7 + 3)
	}
	return f
}()

// groupInput is one generated group in the forms the harness needs.
type groupInput struct {
	Key       GroupKey
	Members   map[HostID]Role
	Receivers []HostID // ascending; every role here receives
	Senders   []HostID // ascending; Receivers[0] is always one
	Pool      []HostID // the owning tenant's hosts, ascending
}

func (g *groupInput) spec() GroupSpec { return GroupSpec{Key: g.Key, Members: g.Members} }

// generateGroups draws the groups and their roles: the first member
// sends and receives, each other member does so with probability 1/4
// and only receives otherwise.
func generateGroups(topo *Topology, tp tenantParams, n int, seed int64) ([]groupInput, error) {
	ms, err := generateMemberships(topo, tp, n, seed)
	if err != nil {
		return nil, fmt.Errorf("generating groups: %w", err)
	}
	rng := rand.New(rand.NewSource(seed + 2))
	// The generator emits groups tenant by tenant; a prefix of the
	// workload must not be one tenant's groups.
	rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
	out := make([]groupInput, len(ms))
	for i, m := range ms {
		g := groupInput{Key: m.Key, Members: make(map[HostID]Role, len(m.Hosts)), Receivers: m.Hosts, Pool: m.TenantHosts}
		for j, h := range m.Hosts {
			role := RoleReceiver
			if j == 0 || rng.Intn(4) == 0 {
				role = RoleBoth
				g.Senders = append(g.Senders, h)
			}
			g.Members[h] = role
		}
		out[i] = g
	}
	return out, nil
}

// sendSlot is one entry of the send schedule.
type sendSlot struct {
	group  int32
	sender HostID
}

// scheduleLen is a power of two so the timed loop cycles by masking.
const scheduleLen = 1 << 16

// sendSchedule is a seeded uniform choice of group, then of one of its
// senders. The timed loop cycles through it, so the op sequence is the
// same however many sends a run completes.
func sendSchedule(groups []groupInput, seed int64) []sendSlot {
	rng := rand.New(rand.NewSource(seed + 3))
	out := make([]sendSlot, 0, scheduleLen)
	for len(out) < scheduleLen {
		gi := rng.Intn(len(groups))
		s := groups[gi].Senders[rng.Intn(len(groups[gi].Senders))]
		out = append(out, sendSlot{group: int32(gi), sender: s})
	}
	return out
}

// memberOp is one join or leave of a group's life.
type memberOp struct {
	Join bool
	Host HostID
}

// groupLife is the op sequence of one group in the lifecycle workload
// between its creation and its removal: two joins and two leaves.
type groupLife struct {
	Updates [4]memberOp
}

// generateLives draws, per group, hosts to join from the tenant's hosts
// outside the group and members to leave other than the first (the
// sender the harness verifies from). A tenant with no spare host joins
// and leaves the same host again.
func generateLives(groups []groupInput, seed int64) []groupLife {
	rng := rand.New(rand.NewSource(seed + 4))
	lives := make([]groupLife, len(groups))
	for i := range groups {
		g := &groups[i]
		var spare []HostID
		for _, h := range g.Pool {
			if _, in := g.Members[h]; !in {
				spare = append(spare, h)
			}
		}
		rng.Shuffle(len(spare), func(a, b int) { spare[a], spare[b] = spare[b], spare[a] })
		var l groupLife
		if len(spare) >= 2 {
			// join, join, then two original members leave.
			l.Updates[0] = memberOp{Join: true, Host: spare[0]}
			l.Updates[1] = memberOp{Join: true, Host: spare[1]}
			a := 1 + rng.Intn(len(g.Receivers)-1)
			b := 1 + rng.Intn(len(g.Receivers)-2)
			if b >= a {
				b++
			}
			l.Updates[2] = memberOp{Host: g.Receivers[a]}
			l.Updates[3] = memberOp{Host: g.Receivers[b]}
		} else {
			// The whole tenant is in the group: cycle one member out and in.
			h := g.Receivers[1+rng.Intn(len(g.Receivers)-1)]
			l.Updates = [4]memberOp{{Host: h}, {Join: true, Host: h}, {Host: h}, {Join: true, Host: h}}
		}
		lives[i] = l
	}
	return lives
}

// digester hashes a generated op sequence into the workload_digest.
type digester struct{ h hash.Hash }

func newDigester(workload string) *digester {
	d := &digester{h: sha256.New()}
	d.h.Write([]byte(workload))
	return d
}

func (d *digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digester) groups(gs []groupInput) {
	for i := range gs {
		g := &gs[i]
		d.u64(uint64(g.Key.Tenant), uint64(g.Key.Group), uint64(len(g.Receivers)))
		for _, h := range g.Receivers {
			d.u64(uint64(h), uint64(g.Members[h]))
		}
	}
}

func (d *digester) schedule(s []sendSlot) {
	for _, e := range s {
		d.u64(uint64(e.group), uint64(e.sender))
	}
}

func (d *digester) lives(ls []groupLife) {
	for _, l := range ls {
		for _, u := range l.Updates {
			j := uint64(0)
			if u.Join {
				j = 1
			}
			d.u64(j, uint64(u.Host))
		}
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }
