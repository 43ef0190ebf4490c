package controller

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"elmo/internal/topology"
	"elmo/internal/trace"
)

// This file implements the parallel bulk-install pipeline (§5.1.3
// controller scale). Group encodings are independent except for the
// shared s-rule capacity counters, so the expensive work shards across
// goroutines at both ends of the pipeline:
//
//   - Encode: workers claim chunks and encode speculatively against
//     point-in-time occupancy reads (capRecorder).
//   - Admit: one sequencer validates each recorded capacity answer
//     against the live counters in strict input order (recomputing
//     serially on a mismatch) and charges occupancy — a short critical
//     section under the Occupancy admission mutex.
//   - Apply: per-shard committer goroutines insert the prepared group
//     state and charge update stats under their own shard lock, so the
//     map/stats work no longer serializes behind admission.
//
// Because admission order is exactly input order and occupancy answers
// are revalidated at the admit point, the committed encodings and the
// final LeafSRuleCount/SpineSRuleCount are byte-identical to a serial
// loop for any worker count and any shard count.

// BatchError wraps an error raised while encoding or committing one
// batch element, preserving the input index (all elements before Index
// were fully committed, exactly as a serial loop would leave them).
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("batch index %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// batchChunkSize is the unit of work a worker claims at a time: large
// enough to amortize scheduling, small enough to pipeline the committer
// behind the workers.
const batchChunkSize = 64

// ResolveWorkers resolves a requested worker count: values <= 0 mean
// one worker per available CPU (GOMAXPROCS). Every path that sizes a
// worker pool (EncodeBatch, InstallBatch, churn) resolves through this
// one helper so pool sizing can never diverge between them.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// EncodeBatch computes the encodings for n receiver sets using the
// given number of workers (<=0 means GOMAXPROCS) against shared s-rule
// occupancy, invoking commit(i, enc) sequentially in strict input
// order. Validation, commit, and the occupancy charge for one element
// form a single admission transaction under occ's admission mutex, so
// EncodeBatch runs correctly alongside other admitters (concurrent
// membership retrees, other batches) — though byte-identical results
// are only guaranteed against a quiescent occupancy. The occupancy
// counters are charged after commit returns nil; a non-nil commit
// error (or an encoding error) aborts the batch with a *BatchError,
// leaving all earlier elements committed.
//
// receivers(i) must be idempotent: it may be called concurrently and
// more than once per index. The result is byte-identical to the serial
// loop
//
//	for i := range n { enc := ComputeEncoding(..., occ.CapacityFunc(), receivers(i)); commit(i, enc); occ.Commit(enc) }
//
// for every worker count. Returned is the number of elements whose
// speculative encoding was discarded and recomputed at the commit point
// because a capacity answer changed under it (contention on nearly-full
// tables).
func EncodeBatch(topo *topology.Topology, cfg Config, occ *Occupancy, n, workers int,
	receivers func(i int) []topology.HostID,
	commit func(i int, enc *Encoding) error) (recomputed int, err error) {
	if n == 0 {
		return 0, nil
	}
	workers = ResolveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial path: same speculate→validate shape as the parallel
		// committer so the admission mutex is never held during
		// encoding. With no concurrent admitter the recorded answers
		// always revalidate, so nothing is recomputed.
		var s EncodeScratch
		for i := 0; i < n; i++ {
			rec := newCapRecorder(occ, nil)
			enc, cerr := ComputeEncodingInto(topo, cfg, rec.capacity(), receivers(i), &s)
			occ.admit.Lock()
			if cerr != nil || !rec.valid() {
				recomputed++
				enc, cerr = ComputeEncodingInto(topo, cfg, occ.CapacityFunc(), receivers(i), &s)
				if cerr != nil {
					occ.admit.Unlock()
					return recomputed, &BatchError{Index: i, Err: cerr}
				}
			}
			if cerr := commit(i, enc); cerr != nil {
				occ.admit.Unlock()
				return recomputed, &BatchError{Index: i, Err: cerr}
			}
			occ.Commit(enc)
			occ.admit.Unlock()
		}
		return recomputed, nil
	}

	type result struct {
		enc *Encoding
		rec *capRecorder
		err error
	}
	results := make([]result, n)
	chunks := (n + batchChunkSize - 1) / batchChunkSize
	ready := make([]chan struct{}, chunks)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch per worker: encodings never alias it, so it
			// is reused across every element this worker encodes.
			var s EncodeScratch
			for !stop.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= chunks {
					return
				}
				lo := ci * batchChunkSize
				hi := lo + batchChunkSize
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					rec := newCapRecorder(occ, nil)
					enc, cerr := ComputeEncodingInto(topo, cfg, rec.capacity(), receivers(i), &s)
					results[i] = result{enc: enc, rec: rec, err: cerr}
				}
				close(ready[ci])
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// Deterministic admission order: admit element i only after 0..i-1,
	// revalidating the speculative capacity answers against the live
	// counters inside the admission transaction.
	var commitScratch EncodeScratch
	for ci := 0; ci < chunks; ci++ {
		<-ready[ci]
		lo := ci * batchChunkSize
		hi := lo + batchChunkSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			r := results[i]
			enc := r.enc
			occ.admit.Lock()
			if r.err != nil || !r.rec.valid() {
				// The speculative run raced a capacity boundary (or
				// errored under a stale view): redo it serially at the
				// commit point — exactly what a serial loop would see.
				recomputed++
				var cerr error
				enc, cerr = ComputeEncodingInto(topo, cfg, occ.CapacityFunc(), receivers(i), &commitScratch)
				if cerr != nil {
					occ.admit.Unlock()
					return recomputed, &BatchError{Index: i, Err: cerr}
				}
			}
			if cerr := commit(i, enc); cerr != nil {
				occ.admit.Unlock()
				return recomputed, &BatchError{Index: i, Err: cerr}
			}
			occ.Commit(enc)
			occ.admit.Unlock()
			results[i] = result{} // release speculative memory early
		}
	}
	return recomputed, nil
}

// BatchSpec is one group to install: its key and members with roles.
type BatchSpec struct {
	Key     GroupKey
	Members map[topology.HostID]Role
}

// BatchOptions tunes InstallBatch.
type BatchOptions struct {
	// Workers is the number of concurrent encoder workers; <=0 uses
	// GOMAXPROCS. The result is identical for every value.
	Workers int
}

// BatchResult reports what a bulk install did.
type BatchResult struct {
	// Installed counts groups committed (== len(specs) on success).
	Installed int
	// Recomputed counts encodings redone at the commit point because a
	// concurrent admission changed a capacity answer they relied on.
	Recomputed int
	// Workers is the effective worker count used.
	Workers int
}

// applyItem is one admitted group handed to a shard committer.
type applyItem struct {
	idx int
	g   *GroupState
}

// applyFlushSize batches admitted groups per shard before handing them
// to the shard's committer: one channel transfer and one shard-lock
// acquisition then cover the whole slice, keeping the sequencer's
// per-element cost to an append.
const applyFlushSize = 32

// applyQueueDepth bounds the per-shard apply queue (in slices). A full
// queue blocks the sequencer (which holds the admission mutex), but
// committers drain using only their shard lock, so progress is
// guaranteed.
const applyQueueDepth = 64

// InstallBatch creates all the given groups through the three-stage
// pipeline described at the top of this file: parallel speculative
// encoding, strict input-order s-rule admission, and per-shard parallel
// application of the group map and update-stat writes. The installed
// state — encodings, occupancy counters, update stats, trace events —
// is byte-identical to calling CreateGroup for each spec in slice
// order, for any worker count and any shard count. On error (duplicate
// or empty key roles, legacy table overflow) the batch stops with a
// *BatchError; specs before the failing index remain installed, exactly
// like the serial loop.
//
// InstallBatch is safe to run concurrently with other controller
// operations, but the byte-identical-to-serial guarantee holds only for
// a quiescent controller (no concurrent mutations admitting s-rules).
func (c *Controller) InstallBatch(specs []BatchSpec, opts BatchOptions) (*BatchResult, error) {
	workers := ResolveWorkers(opts.Workers)
	res := &BatchResult{Workers: workers}
	n := len(specs)
	m := c.getMetrics()
	// The sequencer runs on this goroutine only, so a plain local
	// carries the inter-commit latency baseline race-free.
	last := m.now()

	// The encode workers prepare each group's state alongside its
	// receiver list: prep[i] and prepErr[i] are written before the
	// element's ready signal (or, on the serial/recompute paths, by the
	// sequencer itself just before use), so the sequencer always reads
	// them after a happens-before edge. Rebuilding on a recompute is
	// idempotent.
	prep := make([]*GroupState, n)
	prepErr := make([]error, n)
	receivers := func(i int) []topology.HostID {
		spec := specs[i]
		if prepErr[i] = c.validateMembers(spec.Members); prepErr[i] != nil {
			// The commit step fails this element before its encoding is
			// used; encode nothing rather than hosts the topology would
			// panic on.
			return nil
		}
		g := &GroupState{Key: spec.Key, Members: make(map[topology.HostID]Role, len(spec.Members))}
		for h, r := range spec.Members {
			g.Members[h] = r
		}
		prep[i] = g
		return receiversOf(spec.Members)
	}

	// Per-shard apply committers (parallel path only): the sequencer
	// stays light and map/stat writes spread across shard locks.
	async := workers > 1 && n > 1
	var (
		queues    []chan []applyItem
		pending   [][]applyItem
		applyWG   sync.WaitGroup
		installed atomic.Int64
		applyErr  atomic.Pointer[BatchError]
	)
	applySlice := func(sh *ctrlShard, its []applyItem) {
		ok := 0
		sh.mu.Lock()
		for _, it := range its {
			if _, dup := sh.groups[it.g.Key]; dup {
				// Only reachable when an external create raced this
				// batch (in-batch duplicates are caught by the
				// sequencer): undo the admission charge and surface
				// the first conflict.
				c.occ.Release(it.g.Enc)
				be := &BatchError{Index: it.idx, Err: fmt.Errorf("controller: group %v already exists", it.g.Key)}
				applyErr.CompareAndSwap(nil, be)
				continue
			}
			sh.groups[it.g.Key] = it.g
			for h := range it.g.Members {
				sh.stats.Hypervisor[h]++
			}
			ok++
		}
		sh.mu.Unlock()
		installed.Add(int64(ok))
	}
	if async {
		queues = make([]chan []applyItem, len(c.shards))
		pending = make([][]applyItem, len(c.shards))
		for si := range queues {
			q := make(chan []applyItem, applyQueueDepth)
			queues[si] = q
			sh := c.shards[si]
			applyWG.Add(1)
			go func() {
				defer applyWG.Done()
				for its := range q {
					applySlice(sh, its)
				}
			}()
		}
	}
	drain := func() {
		if async {
			for si, q := range queues {
				if len(pending[si]) > 0 {
					q <- pending[si]
					pending[si] = nil
				}
				close(q)
			}
			applyWG.Wait()
		}
	}

	// seen tracks keys admitted by this batch (their inserts may still
	// be in flight on a shard queue); the shard map read covers groups
	// that existed before the batch.
	seen := make(map[GroupKey]struct{}, n)
	commit := func(i int, enc *Encoding) error {
		if err := prepErr[i]; err != nil {
			return err
		}
		key := specs[i].Key
		if _, dup := seen[key]; dup {
			return fmt.Errorf("controller: group %v already exists", key)
		}
		si := c.shardIndex(key)
		sh := c.shards[si]
		sh.mu.RLock()
		_, exists := sh.groups[key]
		sh.mu.RUnlock()
		if exists {
			return fmt.Errorf("controller: group %v already exists", key)
		}
		seen[key] = struct{}{}
		g := prep[i]
		g.Enc = enc
		it := applyItem{idx: i, g: g}
		if async {
			pending[si] = append(pending[si], it)
			if len(pending[si]) >= applyFlushSize {
				queues[si] <- pending[si]
				pending[si] = nil
			}
		} else {
			applySlice(sh, []applyItem{it})
		}
		c.traceEncode(key, enc)
		c.traceControl(trace.KindCreateGroup, key, int64(len(g.Members)), "")
		if m != nil {
			m.batchInstalled.Inc()
			now := time.Now()
			m.opLatency.install.Observe(now.Sub(last).Seconds())
			last = now
		}
		return nil
	}

	recomputed, err := EncodeBatch(c.topo, c.cfg, c.occ, n, workers, receivers, commit)
	drain()
	res.Recomputed = recomputed
	res.Installed = int(installed.Load())
	if m != nil && recomputed > 0 {
		m.batchRecompute.Add(int64(recomputed))
	}
	if err == nil {
		if be := applyErr.Load(); be != nil {
			err = be
		}
	}
	if err != nil {
		return res, fmt.Errorf("controller: install %w", err)
	}
	return res, nil
}

// receiversOf lists the receiving hosts of a member map, ascending —
// the same order GroupState.Receivers produces.
func receiversOf(members map[topology.HostID]Role) []topology.HostID {
	hosts := make([]topology.HostID, 0, len(members))
	for h, r := range members {
		if r.CanReceive() {
			hosts = append(hosts, h)
		}
	}
	slices.Sort(hosts)
	return hosts
}
