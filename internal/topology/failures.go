package topology

import "fmt"

// FailureSet tracks failed spine and core switches. The paper (§3.3,
// §5.1.3b) handles spine and core failures by disabling multipathing
// for affected groups and pinning upstream ports; leaf failures simply
// disconnect their hosts until repair, so they are not tracked here.
//
// FailureSet is a value type; the zero value has no failures. It is not
// safe for concurrent mutation.
type FailureSet struct {
	spines map[SpineID]struct{}
	cores  map[CoreID]struct{}
}

// NewFailureSet returns an empty failure set.
func NewFailureSet() *FailureSet {
	return &FailureSet{
		spines: make(map[SpineID]struct{}),
		cores:  make(map[CoreID]struct{}),
	}
}

// FailSpine marks a spine as failed. Re-failing is a no-op.
func (f *FailureSet) FailSpine(s SpineID) { f.spines[s] = struct{}{} }

// FailCore marks a core as failed. Re-failing is a no-op.
func (f *FailureSet) FailCore(c CoreID) { f.cores[c] = struct{}{} }

// RepairSpine clears a spine failure.
func (f *FailureSet) RepairSpine(s SpineID) { delete(f.spines, s) }

// RepairCore clears a core failure.
func (f *FailureSet) RepairCore(c CoreID) { delete(f.cores, c) }

// SpineFailed reports whether the spine is failed. A nil FailureSet
// reports no failures, so callers may pass nil for the common case.
func (f *FailureSet) SpineFailed(s SpineID) bool {
	if f == nil {
		return false
	}
	_, ok := f.spines[s]
	return ok
}

// CoreFailed reports whether the core is failed.
func (f *FailureSet) CoreFailed(c CoreID) bool {
	if f == nil {
		return false
	}
	_, ok := f.cores[c]
	return ok
}

// Empty reports whether no switch is failed.
func (f *FailureSet) Empty() bool {
	return f == nil || (len(f.spines) == 0 && len(f.cores) == 0)
}

// NumFailed returns the count of failed spines and cores.
func (f *FailureSet) NumFailed() (spines, cores int) {
	if f == nil {
		return 0, 0
	}
	return len(f.spines), len(f.cores)
}

// String summarizes the failure set.
func (f *FailureSet) String() string {
	s, c := f.NumFailed()
	return fmt.Sprintf("failures(spines=%d cores=%d)", s, c)
}

// HealthyCoresInPlane returns the cores of the given plane that are
// healthy.
func (f *FailureSet) HealthyCoresInPlane(t *Topology, plane int) []CoreID {
	cores := make([]CoreID, 0, t.Config().CoresPerPlane)
	for j := 0; j < t.Config().CoresPerPlane; j++ {
		c := CoreID(plane*t.Config().CoresPerPlane + j)
		if !f.CoreFailed(c) {
			cores = append(cores, c)
		}
	}
	return cores
}
