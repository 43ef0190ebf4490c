package durable

import "testing"

// TestDetectorBoundary pins the miss-budget arithmetic at its edges:
// DeadAfter-1 consecutive misses keep the leader alive, the DeadAfter-
// th declares it, and the declaration latches.
func TestDetectorBoundary(t *testing.T) {
	d := &Detector{DeadAfter: 3}
	if d.Observe(1) {
		t.Fatal("progress round declared dead")
	}
	for i := 1; i < d.DeadAfter; i++ {
		if d.Observe(1) {
			t.Fatalf("declared dead after %d misses, budget %d", i, d.DeadAfter)
		}
		if d.misses != i {
			t.Fatalf("misses = %d, want %d", d.misses, i)
		}
	}
	if !d.Observe(1) {
		t.Fatalf("not declared dead at exactly %d misses", d.DeadAfter)
	}
	// Latched: even a progress round cannot resurrect a declared leader
	// (promotion is already in flight — flapping back would split brain).
	if !d.Observe(100) {
		t.Fatal("declaration did not latch")
	}
}

// TestDetectorHeartbeatOnDeclaringRound: progress arriving on what
// would have been the declaring round resets the budget — only
// CONSECUTIVE misses count.
func TestDetectorHeartbeatOnDeclaringRound(t *testing.T) {
	d := &Detector{DeadAfter: 3}
	d.Observe(1) // progress
	if d.Observe(1) || d.Observe(1) {
		t.Fatal("dead before budget")
	}
	// Miss count is now 2; one more silent round would declare. The
	// heartbeat lands just in time.
	if d.Observe(2) {
		t.Fatal("progress on the declaring round still declared dead")
	}
	if d.misses != 0 {
		t.Fatalf("misses = %d after progress, want 0", d.misses)
	}
	// The budget restarts from scratch.
	if d.Observe(2) || d.Observe(2) {
		t.Fatal("dead before fresh budget ran out")
	}
	if !d.Observe(2) {
		t.Fatal("fresh budget did not declare")
	}
}
