// Package raceflag tells tests whether the race detector is compiled
// in, for the few assertions that cannot hold under it.
package raceflag

import "testing"

// SkipExactAllocs skips a test that compares exact per-send allocation
// counts when the race detector is on: there sync.Pool drops a random
// quarter of Puts, so the forwarder's pooled state is reallocated on
// random sends and two fabrics no longer allocate alike.
func SkipExactAllocs(t testing.TB) {
	t.Helper()
	if enabled {
		t.Skip("allocation counts are not exact under -race (sync.Pool drops Puts at random)")
	}
}
