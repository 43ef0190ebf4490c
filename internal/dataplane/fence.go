package dataplane

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Leadership fencing at the device level (switches and hypervisors).
//
// Every state-changing message a controller sends a device carries the
// sender's leadership epoch. Each device remembers the highest epoch it
// has accepted a message from; a message from a lower epoch is a
// deposed leader still talking on the losing side of a partition, and
// the device rejects it — the table entry is untouched, a counter
// bumps, and the caller gets a StaleEpochError carrying the device's
// current floor so the stale controller can learn it was superseded
// and step down. Epoch 0 is simply the lowest epoch: a controller
// without durable leadership writes at 0, which a device that has never
// heard from a fenced leader admits and every other device rejects.

// ErrStaleEpoch is the class of all fencing rejections; match with
// errors.Is, or errors.As a *StaleEpochError for the observed floor.
var ErrStaleEpoch = errors.New("dataplane: install from stale epoch rejected")

// StaleEpochError reports a fenced install: a device at floor Current
// rejected a message stamped Epoch.
type StaleEpochError struct {
	// Device names the rejecting device (e.g. "leaf 3", "host 17").
	Device string
	// Epoch is the stale epoch the message carried.
	Epoch uint64
	// Current is the device's epoch floor — the successor's term. A
	// deposed leader should feed it to ObserveEpoch and demote.
	Current uint64
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("dataplane: %s fenced install from epoch %d (current epoch %d)", e.Device, e.Epoch, e.Current)
}

// Unwrap makes errors.Is(err, ErrStaleEpoch) match.
func (e *StaleEpochError) Unwrap() error { return ErrStaleEpoch }

// EpochFence is a device's monotonic leadership floor. Admit is safe
// for concurrent use (the live fabrics install from the controller
// goroutine while switch goroutines read).
type EpochFence struct {
	cur      atomic.Uint64
	rejected atomic.Int64
}

// Admit reports whether a message stamped with epoch may be applied,
// raising the floor when the epoch is new.
func (f *EpochFence) Admit(epoch uint64) bool {
	for {
		cur := f.cur.Load()
		if epoch < cur {
			f.rejected.Add(1)
			return false
		}
		if epoch == cur || f.cur.CompareAndSwap(cur, epoch) {
			return true
		}
	}
}

// Observe raises the floor to epoch without carrying an install — the
// "epoch announcement" a freshly promoted controller broadcasts so
// every device fences its predecessor before any new state flows.
func (f *EpochFence) Observe(epoch uint64) {
	f.Admit(epoch)
}

// Current returns the device's epoch floor.
func (f *EpochFence) Current() uint64 { return f.cur.Load() }

// Rejected returns how many messages this fence has rejected.
func (f *EpochFence) Rejected() int64 { return f.rejected.Load() }

// admit applies a device's fence to one controller message: nil when
// epoch may write, otherwise the rejection is reported
// (elmo_fencing_rejected_total) and returned as a *StaleEpochError
// naming the device ("leaf 3", "host 17") and carrying its floor.
func admit(f *EpochFence, p *Probe, tier LinkTier, id int32, epoch uint64) error {
	if f.Admit(epoch) {
		return nil
	}
	p.fenced(tier)
	return &StaleEpochError{Device: fmt.Sprintf("%s %d", tier, id), Epoch: epoch, Current: f.Current()}
}

// Fence exposes the switch's epoch floor (telemetry, tests).
func (sw *NetworkSwitch) Fence() *EpochFence { return &sw.fence }

func (sw *NetworkSwitch) admit(epoch uint64) error {
	return admit(&sw.fence, sw.Probe, sw.tier, sw.id, epoch)
}

// Fence exposes the hypervisor's epoch floor (telemetry, tests).
func (hv *Hypervisor) Fence() *EpochFence { return &hv.fence }

func (hv *Hypervisor) admit(epoch uint64) error {
	return admit(&hv.fence, hv.Probe, LinkHost, int32(hv.host), epoch)
}
