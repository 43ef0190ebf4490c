package obs

import (
	"sort"
	"sync"
)

// Sketch is a Space-Saving top-K heavy-hitter summary (Metwally,
// Agrawal, El Abbadi 2005) over per-group traffic. It tracks at most K
// keys; when a new key arrives with the summary full, the key with the
// minimum count is evicted and the newcomer inherits its count as the
// newcomer's maximum possible error. The classic guarantees hold:
//
//   - estimated count >= true count (never undercounts),
//   - estimated count - Err <= true count (error is bounded and
//     reported per entry),
//   - any key whose true count exceeds total/K is in the summary.
//
// The slots form an indexed min-heap on count, so Update is O(log K)
// with a single small mutex — cheap enough for the per-send path when
// observation is enabled, and never touched when disabled.
type Sketch struct {
	mu    sync.Mutex
	k     int
	slots []ssSlot       // min-heap on Count
	pos   map[uint64]int // key -> heap position
	total int64          // all packets fed to the sketch
}

type ssSlot struct {
	key   uint64
	count int64 // estimated packets
	err   int64 // maximum overcount inherited at eviction
	bytes int64 // bytes ride along the packet estimate
}

// NewSketch returns a sketch tracking up to k keys.
func NewSketch(k int) *Sketch {
	return &Sketch{k: k, slots: make([]ssSlot, 0, k), pos: make(map[uint64]int, k)}
}

// Update feeds one observation: pkts packets and bytes bytes for key.
func (s *Sketch) Update(key uint64, pkts, bytes int64) {
	if pkts <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += pkts
	if i, ok := s.pos[key]; ok {
		s.slots[i].count += pkts
		s.slots[i].bytes += bytes
		s.siftDown(i)
		return
	}
	if len(s.slots) < s.k {
		s.slots = append(s.slots, ssSlot{key: key, count: pkts, bytes: bytes})
		i := len(s.slots) - 1
		s.pos[key] = i
		s.siftUp(i)
		return
	}
	// Evict the minimum: the newcomer inherits its count as error.
	min := &s.slots[0]
	delete(s.pos, min.key)
	s.pos[key] = 0
	min.err = min.count
	min.count += pkts
	min.key = key
	min.bytes = bytes
	s.siftDown(0)
}

func (s *Sketch) less(a, b int) bool { return s.slots[a].count < s.slots[b].count }

func (s *Sketch) swap(a, b int) {
	s.slots[a], s.slots[b] = s.slots[b], s.slots[a]
	s.pos[s.slots[a].key] = a
	s.pos[s.slots[b].key] = b
}

func (s *Sketch) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *Sketch) siftDown(i int) {
	n := len(s.slots)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}

// HeavyHitter is one reported entry. Count overestimates the true
// packet count by at most Err.
type HeavyHitter struct {
	VNI   uint32 `json:"vni"`
	Group uint32 `json:"group"`
	Count int64  `json:"packets"`
	Err   int64  `json:"max_overcount"`
	Bytes int64  `json:"bytes"`
}

// Top returns up to n entries sorted by estimated count descending
// (ties by key for determinism).
func (s *Sketch) Top(n int) []HeavyHitter {
	s.mu.Lock()
	out := make([]HeavyHitter, 0, len(s.slots))
	for _, sl := range s.slots {
		out = append(out, HeavyHitter{
			VNI:   uint32(sl.key >> 32),
			Group: uint32(sl.key),
			Count: sl.count,
			Err:   sl.err,
			Bytes: sl.bytes,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		if out[a].VNI != out[b].VNI {
			return out[a].VNI < out[b].VNI
		}
		return out[a].Group < out[b].Group
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Total reports all packets fed to the sketch (tracked or not).
func (s *Sketch) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// groupKey packs a (vni, group) address into the sketch key space.
func groupKey(vni, group uint32) uint64 { return uint64(vni)<<32 | uint64(group) }
