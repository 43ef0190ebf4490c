package fabric

import (
	"crypto/sha256"

	"elmo/internal/dataplane"
)

// Fabric-level leadership fencing. Every data-plane write carries its
// controller's epoch and each device fences lower epochs (see
// dataplane/fence.go; the install walk is install.go). The fabric adds
// AnnounceEpoch — the takeover broadcast a freshly promoted leader
// sends so EVERY device fences its predecessor immediately, not just
// the devices the new leader happens to touch first. Without the
// announcement a deposed leader could still slip installs onto devices
// the successor had not yet written to.

// AnnounceEpoch raises every device's epoch floor to epoch — the first
// thing a freshly promoted controller does, before reinstalling any
// state, so a deposed leader's in-flight writes are rejected fabric-
// wide from this point on.
func (f *Fabric) AnnounceEpoch(epoch uint64) {
	for _, sw := range f.Leaves {
		sw.Fence().Observe(epoch)
	}
	for _, sw := range f.Spines {
		sw.Fence().Observe(epoch)
	}
	for _, sw := range f.Cores {
		sw.Fence().Observe(epoch)
	}
	for _, hv := range f.Hypervisors {
		hv.Fence().Observe(epoch)
	}
}

// FencingRejections sums the stale-epoch rejections across every
// device (the in-process view of elmo_fencing_rejected_total).
func (f *Fabric) FencingRejections() int64 {
	var n int64
	for _, sw := range f.Leaves {
		n += sw.Fence().Rejected()
	}
	for _, sw := range f.Spines {
		n += sw.Fence().Rejected()
	}
	for _, sw := range f.Cores {
		n += sw.Fence().Rejected()
	}
	for _, hv := range f.Hypervisors {
		n += hv.Fence().Rejected()
	}
	return n
}

// Fingerprint hashes the complete data-plane forwarding state — every
// switch group table and every hypervisor flow/filter table, in
// deterministic device order. Two fabrics with equal fingerprints
// forward identically; the partition soak compares this against the
// controllers' state fingerprints after heal.
func (f *Fabric) Fingerprint() [32]byte {
	h := sha256.New()
	stamp := func(tier byte, id int, sw *dataplane.NetworkSwitch) {
		h.Write([]byte{tier, byte(id >> 8), byte(id)})
		sw.WriteStateDigest(h)
	}
	for i, sw := range f.Leaves {
		stamp('l', i, sw)
	}
	for i, sw := range f.Spines {
		stamp('s', i, sw)
	}
	for i, sw := range f.Cores {
		stamp('c', i, sw)
	}
	for i, hv := range f.Hypervisors {
		h.Write([]byte{'h', byte(i >> 8), byte(i)})
		hv.WriteStateDigest(h)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
