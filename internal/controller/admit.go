package controller

// This file is the only place the admission transaction lives. The one
// thing that couples a group's encoding to every other group's is the
// shared s-rule budget Fmax per switch (§3.2, Algorithm 1 "has s-rule
// capacity"), so every encoding that enters controller state — a new
// group, a membership change, one element of a batch — goes through
// admitEncoding: read what it replaces, release that, settle its
// capacity answers against the live counters, publish it, charge it.

// encodeFunc computes one group's encoding against a capacity view.
type encodeFunc func(CapacityFunc) (*Encoding, error)

// admitEncoding replaces the encoding current returns with a new one in
// one transaction under the admission mutex:
//
//	old := current() → Release(old) → take sp, or encode against the live counters
//	                 → publish(enc) → Commit(enc)
//
// current reads the group the transaction edits and returns its
// encoding; an error from it ends the transaction with nothing changed.
// A nil current replaces nothing (a batch element, a new group). Because
// it runs under the mutex, the encoding it returns is the one in force:
// no other writer can replace it before publish.
//
// sp is a speculation: an encoding of a new group computed outside the
// mutex against a recording view of the counters. It is accepted when
// every capacity answer it recorded still holds — it is then exactly
// what encode would return here — and discarded otherwise, or when it
// errored under its stale view; a nil sp means nothing was computed
// ahead. publish makes the encoding visible (map insert, g.Enc store,
// stats charges) and may refuse it. If encode or publish fails, old is
// charged back, so occupancy is never left charged for state that was
// not published. atCommit reports whether the encoding was computed
// under the mutex rather than taken from sp.
func (o *Occupancy) admitEncoding(current func() (*Encoding, error), sp *capRecorder, encode encodeFunc, publish func(*Encoding) error) (atCommit bool, err error) {
	o.admit.Lock()
	defer o.admit.Unlock()
	var old *Encoding
	if current != nil {
		if old, err = current(); err != nil {
			return false, err
		}
	}
	o.Release(old)
	var enc *Encoding
	if sp != nil && sp.err == nil && sp.valid() {
		enc = sp.enc
	} else {
		atCommit = true
		if enc, err = encode(o.CapacityFunc()); err != nil {
			o.Commit(old)
			return atCommit, err
		}
	}
	if err = publish(enc); err != nil {
		o.Commit(old)
		return atCommit, err
	}
	o.Commit(enc)
	return atCommit, nil
}
