package controller

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"elmo/internal/topology"
)

// This file implements the parallel bulk-install pipeline (§5.1.3
// controller scale). A batch is first prepared — each spec's member map
// listed in ascending host order, once (PrepareBatch) — and installed
// from those lists. Group encodings are independent except for the
// shared s-rule capacity counters, so the install has two stages:
//
//   - Encode: workers claim chunks, validate each member list and
//     encode speculatively against point-in-time occupancy reads
//     (capRecorder).
//   - Admit: one sequencer takes the elements in strict input order
//     through the admission transaction (admit.go), whose publish step
//     inserts the group and charges its update stats under the
//     controller's write lock.
//
// Because admission order is exactly input order and occupancy answers
// are revalidated at the admit point, the committed encodings and the
// final leaf and spine s-rule occupancy are byte-identical to a serial
// loop for any worker count.

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
// enough to amortize scheduling, small enough to pipeline the sequencer
// behind the workers.
const batchChunkSize = 64

// resolveWorkers resolves a requested worker count: values <= 0 mean
// one worker per available CPU (GOMAXPROCS). EncodeBatch, PrepareBatch
// and InstallPrepared all resolve through this one helper so their pool
// sizing can never diverge.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// EncodeBatch computes the encodings for n receiver sets using the
// given number of workers (<=0 means GOMAXPROCS) against shared s-rule
// occupancy, invoking commit(i, enc) sequentially in strict input
// order. commit is the publish step of element i's admission
// transaction (admit.go), so EncodeBatch runs correctly alongside other
// admitters (concurrent membership retrees, other batches) — though
// byte-identical results are only guaranteed against a quiescent
// occupancy. The occupancy counters are charged after commit returns
// nil; a non-nil commit error (or an encoding error) aborts the batch
// with a *BatchError, leaving all earlier elements committed.
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
	workers = min(resolveWorkers(workers), n)
	speculateAt := func(i int, s *EncodeScratch) *capRecorder {
		sp := newCapRecorder(occ)
		sp.enc, sp.err = ComputeEncodingInto(topo, cfg, sp.capacity(), receivers(i), s)
		return sp
	}
	// admitAt takes element i through the admission transaction; the
	// sequencer's own scratch serves the rare recompute.
	var seqScratch EncodeScratch
	admitAt := func(i int, sp *capRecorder) error {
		atCommit, err := occ.admitEncoding(nil, sp,
			func(cap CapacityFunc) (*Encoding, error) {
				return ComputeEncodingInto(topo, cfg, cap, receivers(i), &seqScratch)
			},
			func(enc *Encoding) error { return commit(i, enc) })
		if atCommit {
			recomputed++
		}
		if err != nil {
			return &BatchError{Index: i, Err: err}
		}
		return nil
	}

	if workers == 1 {
		// One worker speculates inline, one element ahead of its own
		// admission: with no concurrent admitter the recorded answers
		// always revalidate, so nothing is recomputed. (A pipelined
		// worker speculates a whole chunk ahead of the admissions that
		// change its answers.)
		for i := 0; i < n; i++ {
			if err := admitAt(i, speculateAt(i, &seqScratch)); err != nil {
				return recomputed, err
			}
		}
		return recomputed, nil
	}

	results := make([]*capRecorder, n)
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
				for i := lo; i < min(lo+batchChunkSize, n); i++ {
					results[i] = speculateAt(i, &s)
				}
				close(ready[ci])
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// Deterministic admission order: admit element i only after 0..i-1.
	for ci := 0; ci < chunks; ci++ {
		<-ready[ci]
		lo := ci * batchChunkSize
		for i := lo; i < min(lo+batchChunkSize, n); i++ {
			if err := admitAt(i, results[i]); err != nil {
				return recomputed, err
			}
			results[i] = nil // release speculative memory early
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
}

// PreparedSpec is a BatchSpec made ready to install: its members listed
// once each in ascending host order, the order a batch's WAL record
// carries them in and a group keeps them in. PrepareBatch makes them;
// InstallPrepared trusts the order.
type PreparedSpec struct {
	Key     GroupKey
	Members []Member
}

// PrepareBatch lists every spec's members in ascending host order, on
// the given number of workers (<=0 means GOMAXPROCS; one runs inline).
// The result is the same for every worker count.
func PrepareBatch(specs []BatchSpec, workers int) []PreparedSpec {
	n := len(specs)
	out := make([]PreparedSpec, n)
	prepare := func(lo int) {
		for i := lo; i < min(lo+batchChunkSize, n); i++ {
			out[i] = PreparedSpec{Key: specs[i].Key, Members: membersOf(specs[i].Members)}
		}
	}
	workers = min(resolveWorkers(workers), (n+batchChunkSize-1)/batchChunkSize)
	if workers <= 1 {
		for lo := 0; lo < n; lo += batchChunkSize {
			prepare(lo)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(batchChunkSize)) - batchChunkSize
				if lo >= n {
					return
				}
				prepare(lo)
			}
		}()
	}
	wg.Wait()
	return out
}

// InstallBatch prepares the specs (PrepareBatch, on opts.Workers) and
// installs them (InstallPrepared): each spec's members are sorted once
// and validated once.
func (c *Controller) InstallBatch(specs []BatchSpec, opts BatchOptions) (*BatchResult, error) {
	return c.InstallPrepared(PrepareBatch(specs, opts.Workers), opts)
}

// InstallPrepared creates all the given groups through the two-stage
// pipeline described at the top of this file: parallel validation and
// speculative encoding, then strict input-order admission whose publish
// step inserts the group under the controller's write lock. Each group
// keeps its spec's member list as its own, so the caller must not touch
// the lists afterwards. The installed state — encodings, occupancy
// counters, update stats, trace events — is byte-identical to calling
// CreateGroup for each spec in slice order, for any worker count. On
// error (duplicate key, invalid member, legacy table overflow) the batch stops with a *BatchError; specs before the failing
// index remain installed, exactly like the serial loop.
//
// InstallPrepared is safe to run concurrently with other controller
// operations, but the byte-identical-to-serial guarantee holds only for
// a quiescent controller (no concurrent mutations admitting s-rules).
func (c *Controller) InstallPrepared(specs []PreparedSpec, opts BatchOptions) (*BatchResult, error) {
	workers := resolveWorkers(opts.Workers)
	res := &BatchResult{}
	n := len(specs)
	m := c.getMetrics()
	// commit runs on this goroutine only, so a plain local carries the
	// inter-commit latency baseline race-free.
	last := time.Now()

	// The encode workers validate each spec alongside listing its
	// receivers: prepErr[i] is written before the element's ready signal
	// (or, on the inline and recompute paths, by the sequencer itself
	// just before use), so commit always reads it after a happens-before
	// edge. Revalidating on a recompute is idempotent.
	prepErr := make([]error, n)
	receivers := func(i int) []topology.HostID {
		if prepErr[i] = c.validateMembers(specs[i].Members); prepErr[i] != nil {
			// The commit step fails this element before its encoding is
			// used; encode nothing rather than hosts the topology would
			// panic on.
			return nil
		}
		return hostsWith(specs[i].Members, Role.CanReceive)
	}
	commit := func(i int, enc *Encoding) error {
		if err := prepErr[i]; err != nil {
			return err
		}
		if err := c.insertGroup(&GroupState{Key: specs[i].Key, Members: specs[i].Members}, enc); err != nil {
			return err
		}
		res.Installed++
		m.batchInstalled.Inc()
		now := time.Now()
		m.opLatency.install.Observe(now.Sub(last).Seconds())
		last = now
		return nil
	}

	recomputed, err := EncodeBatch(c.topo, c.cfg, c.occ, n, workers, receivers, commit)
	res.Recomputed = recomputed
	m.batchRecompute.Add(int64(recomputed))
	if err != nil {
		return res, fmt.Errorf("controller: install %w", err)
	}
	return res, nil
}
