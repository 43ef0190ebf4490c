package topology

import (
	"reflect"
	"testing"
)

func TestFailureSetEmptyAndNil(t *testing.T) {
	var nilSet *FailureSet
	if !nilSet.Empty() {
		t.Fatal("nil set should be empty")
	}
	if nilSet.SpineFailed(0) || nilSet.CoreFailed(0) {
		t.Fatal("nil set should report no failures")
	}
	if s, c := nilSet.NumFailed(); s != 0 || c != 0 {
		t.Fatalf("nil NumFailed = %d,%d", s, c)
	}

	f := NewFailureSet()
	if !f.Empty() {
		t.Fatal("new set should be empty")
	}
	if got := f.String(); got != "failures(spines=0 cores=0)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestFailureSetFailRepairRoundTrip(t *testing.T) {
	f := NewFailureSet()
	f.FailSpine(3)
	f.FailSpine(3) // re-failing is a no-op
	f.FailSpine(5)
	f.FailCore(1)
	if f.Empty() {
		t.Fatal("set with failures reported empty")
	}
	if !f.SpineFailed(3) || !f.SpineFailed(5) || f.SpineFailed(4) {
		t.Fatal("wrong spine failure state")
	}
	if !f.CoreFailed(1) || f.CoreFailed(0) {
		t.Fatal("wrong core failure state")
	}
	if s, c := f.NumFailed(); s != 2 || c != 1 {
		t.Fatalf("NumFailed = %d,%d, want 2,1", s, c)
	}
	if got := f.String(); got != "failures(spines=2 cores=1)" {
		t.Fatalf("String() = %q", got)
	}

	f.RepairSpine(3)
	f.RepairSpine(3) // re-repairing is a no-op
	f.RepairCore(1)
	f.RepairCore(7) // repairing a healthy core is a no-op
	if f.SpineFailed(3) || f.CoreFailed(1) {
		t.Fatal("repair did not clear failure")
	}
	if !f.SpineFailed(5) {
		t.Fatal("repair cleared an unrelated spine")
	}
	if s, c := f.NumFailed(); s != 1 || c != 0 {
		t.Fatalf("NumFailed after repair = %d,%d, want 1,0", s, c)
	}
	f.RepairSpine(5)
	if !f.Empty() {
		t.Fatal("fully repaired set should be empty again")
	}
}

func TestFailureSetHealthyCoresInPlane(t *testing.T) {
	topo := MustNew(PaperExample()) // 2 cores per plane
	cfg := topo.Config()
	f := NewFailureSet()

	plane1First := CoreID(1 * cfg.CoresPerPlane)
	if got := f.HealthyCoresInPlane(topo, 1); !reflect.DeepEqual(got, []CoreID{plane1First, plane1First + 1}) {
		t.Fatalf("healthy cores = %v", got)
	}

	f.FailCore(plane1First)
	if got := f.HealthyCoresInPlane(topo, 1); !reflect.DeepEqual(got, []CoreID{plane1First + 1}) {
		t.Fatalf("healthy cores after failure = %v", got)
	}
	// Plane 0 is untouched.
	if got := f.HealthyCoresInPlane(topo, 0); len(got) != cfg.CoresPerPlane {
		t.Fatalf("plane 0 cores = %v", got)
	}

	f.RepairCore(plane1First)
	if got := f.HealthyCoresInPlane(topo, 1); len(got) != cfg.CoresPerPlane {
		t.Fatalf("healthy cores after repair = %v", got)
	}
}
