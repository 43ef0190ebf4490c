package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"elmo/internal/dataplane"
	"elmo/internal/topology"
)

// LinkTable maintains windowed per-link utilization. The hot path
// (ObserveLink via the Plane) does two atomic adds into dense
// cumulative counters; a sampler thread periodically differences the
// cumulative counters into a per-link ring of rate buckets
// (Prometheus rate()-style), so queries read rates without ever
// touching the forwarding path.
//
// Links are the directed edges of the Clos fabric, densely indexed
// from topology arithmetic:
//
//	host->leaf   NumHosts                 id = host
//	leaf->host   NumHosts                 id = host
//	leaf->spine  NumLeaves*SpinesPerPod   id = leaf*SpinesPerPod + plane
//	spine->leaf  NumLeaves*SpinesPerPod   id = leaf*SpinesPerPod + plane
//	spine->core  NumSpines*CoresPerPlane  id = spine*CoresPerPlane + j
//	core->spine  NumSpines*CoresPerPlane  id = core*Pods + pod
type LinkTable struct {
	topo *topology.Topology

	// Segment offsets into the dense link space, in the order above.
	offHL, offLH, offLS, offSL, offSC, offCS int
	n                                        int

	// Cumulative hot-path counters, one per directed link.
	bytes []atomic.Int64
	pkts  []atomic.Int64

	// Sampling state and per-link rate rings, guarded by mu. rings is
	// one flat slice: link i's buckets live at [i*width, (i+1)*width).
	mu        sync.Mutex
	width     int
	rings     []float64 // bytes/sec per bucket
	next      int       // ring write cursor (shared by all links)
	filled    int       // buckets written so far, capped at width
	lastBytes []int64
	lastAt    time.Time
	started   bool
}

// NewLinkTable sizes the table for a topology with width rate buckets
// per link.
func NewLinkTable(topo *topology.Topology, width int) *LinkTable {
	cfg := topo.Config()
	nHL := topo.NumHosts()
	nLS := topo.NumLeaves() * cfg.SpinesPerPod
	nSC := topo.NumSpines() * cfg.CoresPerPlane
	lt := &LinkTable{topo: topo, width: width}
	lt.offHL = 0
	lt.offLH = lt.offHL + nHL
	lt.offLS = lt.offLH + nHL
	lt.offSL = lt.offLS + nLS
	lt.offSC = lt.offSL + nLS
	lt.offCS = lt.offSC + nSC
	lt.n = lt.offCS + nSC
	lt.bytes = make([]atomic.Int64, lt.n)
	lt.pkts = make([]atomic.Int64, lt.n)
	lt.rings = make([]float64, lt.n*width)
	lt.lastBytes = make([]int64, lt.n)
	return lt
}

// NumLinks reports the size of the directed link space.
func (lt *LinkTable) NumLinks() int { return lt.n }

// index maps a dataplane link crossing to its dense id, or -1 for a
// crossing outside the modeled Clos edge set.
func (lt *LinkTable) index(l dataplane.Link) int {
	cfg := lt.topo.Config()
	switch {
	case l.FromTier == dataplane.LinkHost && l.ToTier == dataplane.LinkLeaf:
		return lt.offHL + int(l.From)
	case l.FromTier == dataplane.LinkLeaf && l.ToTier == dataplane.LinkHost:
		return lt.offLH + int(l.To)
	case l.FromTier == dataplane.LinkLeaf && l.ToTier == dataplane.LinkSpine:
		plane := int(l.To) % cfg.SpinesPerPod
		return lt.offLS + int(l.From)*cfg.SpinesPerPod + plane
	case l.FromTier == dataplane.LinkSpine && l.ToTier == dataplane.LinkLeaf:
		plane := int(l.From) % cfg.SpinesPerPod
		return lt.offSL + int(l.To)*cfg.SpinesPerPod + plane
	case l.FromTier == dataplane.LinkSpine && l.ToTier == dataplane.LinkCore:
		j := int(l.To) % cfg.CoresPerPlane
		return lt.offSC + int(l.From)*cfg.CoresPerPlane + j
	case l.FromTier == dataplane.LinkCore && l.ToTier == dataplane.LinkSpine:
		pod := int(l.To) / cfg.SpinesPerPod
		return lt.offCS + int(l.From)*cfg.Pods + pod
	default:
		return -1
	}
}

// observe is the hot path: two atomic adds, no locks, no allocation.
func (lt *LinkTable) observe(l dataplane.Link, bytes int) {
	idx := lt.index(l)
	if idx < 0 {
		return
	}
	lt.bytes[idx].Add(int64(bytes))
	lt.pkts[idx].Add(1)
}

// name renders a dense link id back to a human-readable directed edge.
func (lt *LinkTable) name(idx int) string {
	cfg := lt.topo.Config()
	switch {
	case idx < lt.offLH:
		h := idx - lt.offHL
		return fmt.Sprintf("host%d->leaf%d", h, lt.topo.HostLeaf(topology.HostID(h)))
	case idx < lt.offLS:
		h := idx - lt.offLH
		return fmt.Sprintf("leaf%d->host%d", lt.topo.HostLeaf(topology.HostID(h)), h)
	case idx < lt.offSL:
		i := idx - lt.offLS
		leaf := topology.LeafID(i / cfg.SpinesPerPod)
		return fmt.Sprintf("leaf%d->spine%d", leaf, lt.topo.LeafUpstream(leaf, i%cfg.SpinesPerPod))
	case idx < lt.offSC:
		i := idx - lt.offSL
		leaf := topology.LeafID(i / cfg.SpinesPerPod)
		return fmt.Sprintf("spine%d->leaf%d", lt.topo.LeafUpstream(leaf, i%cfg.SpinesPerPod), leaf)
	case idx < lt.offCS:
		i := idx - lt.offSC
		spine := topology.SpineID(i / cfg.CoresPerPlane)
		return fmt.Sprintf("spine%d->core%d", spine, lt.topo.SpineUpstream(spine, i%cfg.CoresPerPlane))
	default:
		i := idx - lt.offCS
		core := topology.CoreID(i / cfg.Pods)
		pod := topology.PodID(i % cfg.Pods)
		return fmt.Sprintf("core%d->spine%d", core, lt.topo.CoreDownstream(core, pod))
	}
}

// Sample differences the cumulative counters into one rate bucket per
// link, stamped with the elapsed time since the previous sample. The
// first call only establishes the baseline. Call it at a fixed cadence
// (the Plane's sampler does) or manually with test-controlled times.
func (lt *LinkTable) Sample(now time.Time) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if !lt.started {
		for i := range lt.lastBytes {
			lt.lastBytes[i] = lt.bytes[i].Load()
		}
		lt.lastAt = now
		lt.started = true
		return
	}
	elapsed := now.Sub(lt.lastAt).Seconds()
	if elapsed <= 0 {
		return
	}
	slot := lt.next
	for i := range lt.lastBytes {
		cur := lt.bytes[i].Load()
		lt.rings[i*lt.width+slot] = float64(cur-lt.lastBytes[i]) / elapsed
		lt.lastBytes[i] = cur
	}
	lt.lastAt = now
	lt.next = (lt.next + 1) % lt.width
	if lt.filled < lt.width {
		lt.filled++
	}
}

// LinkRate is one link's windowed utilization.
type LinkRate struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	BytesSec float64 `json:"bytes_per_sec"`
	Bytes    int64   `json:"bytes_total"`
	Packets  int64   `json:"packets_total"`
}

// rate returns link i's mean bytes/sec over the most recent
// min(buckets, filled) rate buckets. Caller holds mu.
func (lt *LinkTable) rate(i, buckets int) float64 {
	if buckets <= 0 || buckets > lt.filled {
		buckets = lt.filled
	}
	if buckets == 0 {
		return 0
	}
	sum := 0.0
	for b := 1; b <= buckets; b++ {
		slot := (lt.next - b + lt.width) % lt.width
		sum += lt.rings[i*lt.width+slot]
	}
	return sum / float64(buckets)
}

// TopN returns the n most loaded links by mean rate over the last
// `buckets` samples (0 = the whole filled window), most loaded first.
// Idle links (zero rate and zero cumulative traffic) are skipped.
func (lt *LinkTable) TopN(n, buckets int) []LinkRate {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if n <= 0 {
		return nil
	}
	out := make([]LinkRate, 0, n)
	for i := 0; i < lt.n; i++ {
		total := lt.bytes[i].Load()
		if total == 0 {
			continue
		}
		r := LinkRate{ID: i, BytesSec: lt.rate(i, buckets), Bytes: total, Packets: lt.pkts[i].Load()}
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].BytesSec != out[b].BytesSec {
			return out[a].BytesSec > out[b].BytesSec
		}
		if out[a].Bytes != out[b].Bytes {
			return out[a].Bytes > out[b].Bytes
		}
		return out[a].ID < out[b].ID
	})
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		out[i].Name = lt.name(out[i].ID)
	}
	return out
}
