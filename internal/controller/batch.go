package controller

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"elmo/internal/topology"
)

// This file implements the parallel bulk-install pipeline (§5.1.3
// controller scale). A batch is first prepared — each spec's member map
// listed in ascending host order, once (PrepareBatch) — and installed
// from those lists. Group encodings are independent except for the
// shared s-rule capacity counters, so the install has two stages:
//
//   - Encode: workers take chunks, validate each member list and
//     encode speculatively against point-in-time occupancy reads
//     (capRecorder).
//   - Admit: the caller takes the elements in strict input order
//     through the admission transaction (admit.go), whose publish step
//     inserts the group and charges its update stats under the
//     controller's write lock.
//
// Both stages run on inOrder, the bounded in-order chunk runner that
// PrepareBatch and WriteState use too.
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
// one worker per available CPU (GOMAXPROCS).
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// inOrder is the one pipeline behind every bulk path (EncodeBatch,
// PrepareBatch, WriteState): it calls produce for chunks 0..chunks-1 on
// up to workers goroutines (<=0 means resolveWorkers) and consume for
// each on the caller, in ascending chunk order. Chunk ci+2·workers is
// handed out only after chunk ci is consumed, so at most 2·workers
// chunks are in flight and slot ci mod 2·workers has one owner at a
// time and is reused. With one worker, or one chunk, produce and
// consume run inline and alternate. The first consume error stops the
// hand-out and is returned; every worker has exited before inOrder
// returns.
func inOrder[T any](chunks, workers int, produce func(ci int, slot *T), consume func(ci int, slot *T) error) error {
	workers = min(resolveWorkers(workers), chunks)
	if workers <= 1 {
		var slot T
		for ci := 0; ci < chunks; ci++ {
			produce(ci, &slot)
			if err := consume(ci, &slot); err != nil {
				return err
			}
		}
		return nil
	}
	slots := make([]T, 2*workers)
	// At most len(slots) chunks are handed out and not yet consumed, so
	// neither a hand-out nor a done signal ever blocks its sender.
	work := make(chan int, len(slots))
	done := make([]chan struct{}, len(slots))
	for i := range done {
		done[i] = make(chan struct{}, 1)
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				produce(ci, &slots[ci%len(slots)])
				done[ci%len(slots)] <- struct{}{}
			}
		}()
	}
	for ci := range min(len(slots), chunks) {
		work <- ci
	}
	var err error
	for ci := 0; ci < chunks && err == nil; ci++ {
		<-done[ci%len(slots)]
		err = consume(ci, &slots[ci%len(slots)])
		if next := ci + len(slots); err == nil && next < chunks {
			work <- next
		}
	}
	// After an error the chunks already handed out are produced and
	// dropped; none is handed out after it.
	close(work)
	wg.Wait()
	return err
}

// encodeSlot is one EncodeBatch chunk in flight: the speculations of
// its elements and the scratch they were encoded with.
type encodeSlot struct {
	s   EncodeScratch
	sps []*capRecorder
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
// for every worker count. Workers speculate at most 2·workers chunks of
// batchChunkSize ahead of the committed element (inOrder); one worker
// speculates one element ahead of its own admission, so with no
// concurrent admitter its recorded answers always revalidate and
// nothing is recomputed. Returned is the number of elements whose
// speculative encoding was discarded and recomputed at the commit point
// because a capacity answer changed under it (contention on nearly-full
// tables).
func EncodeBatch(topo *topology.Topology, cfg Config, occ *Occupancy, n, workers int,
	receivers func(i int) []topology.HostID,
	commit func(i int, enc *Encoding) error) (recomputed int, err error) {
	workers = resolveWorkers(workers)
	size := batchChunkSize
	if workers == 1 {
		size = 1
	}
	err = inOrder((n+size-1)/size, workers,
		func(ci int, slot *encodeSlot) {
			slot.sps = slot.sps[:0]
			for i := ci * size; i < min((ci+1)*size, n); i++ {
				sp := newCapRecorder(occ)
				sp.enc, sp.err = ComputeEncodingInto(topo, cfg, sp.capacity(), receivers(i), &slot.s)
				slot.sps = append(slot.sps, sp)
			}
		},
		func(ci int, slot *encodeSlot) error {
			for j, sp := range slot.sps {
				i := ci*size + j
				slot.sps[j] = nil // release speculative memory early
				atCommit, err := occ.admitEncoding(nil, sp,
					func(cap CapacityFunc) (*Encoding, error) {
						return ComputeEncodingInto(topo, cfg, cap, receivers(i), &slot.s)
					},
					func(enc *Encoding) error { return commit(i, enc) })
				if atCommit {
					recomputed++
				}
				if err != nil {
					return &BatchError{Index: i, Err: err}
				}
			}
			return nil
		})
	return recomputed, err
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
// once each in ascending host order, the order a WAL record carries them
// in and a group keeps them in. PrepareBatch makes them; InstallPrepared
// and CreatePrepared trust the order.
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
	inOrder((n+batchChunkSize-1)/batchChunkSize, workers,
		func(ci int, _ *struct{}) {
			for i := ci * batchChunkSize; i < min((ci+1)*batchChunkSize, n); i++ {
				out[i] = PreparedSpec{Key: specs[i].Key, Members: membersOf(specs[i].Members)}
			}
		},
		func(int, *struct{}) error { return nil })
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
	res := &BatchResult{}
	n := len(specs)
	m := c.getMetrics()
	// commit runs on this goroutine only, so a plain local carries the
	// inter-commit latency baseline race-free.
	last := time.Now()

	// The encode workers validate each spec alongside listing its
	// receivers: prepErr[i] is written before its chunk is handed to the
	// sequencer (or, on the inline and recompute paths, by the sequencer
	// itself just before use), so commit always reads it after a
	// happens-before edge. Revalidating on a recompute is idempotent.
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

	recomputed, err := EncodeBatch(c.topo, c.cfg, c.occ, n, opts.Workers, receivers, commit)
	res.Recomputed = recomputed
	m.batchRecompute.Add(int64(recomputed))
	if err != nil {
		return res, fmt.Errorf("controller: install %w", err)
	}
	return res, nil
}
