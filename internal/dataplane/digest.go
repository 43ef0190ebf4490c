package dataplane

import (
	"encoding/binary"
	"io"
	"slices"

	"elmo/internal/bitmap"
)

// Deterministic state digests, the currency of split-brain audits: the
// partition soak hashes every device's forwarding state and demands
// that the old leader (rejoined as follower), the new leader, and the
// data plane all agree bit-for-bit after heal. Map iteration order is
// randomized, so each digest sorts its entries first.

// sortedAddrs returns the map's group addresses in (VNI, Group) order.
func sortedAddrs[V any](m map[GroupAddr]V) []GroupAddr {
	addrs := make([]GroupAddr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, compareAddrs)
	return addrs
}

func writeAddr(w io.Writer, a GroupAddr) {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], a.VNI)
	binary.BigEndian.PutUint32(b[4:8], a.Group)
	w.Write(b[:])
}

func writeBitmap(w io.Writer, bm bitmap.Bitmap) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(bm.Width()))
	w.Write(b[:])
	for _, word := range bm.Words() {
		binary.BigEndian.PutUint64(b[:], word)
		w.Write(b[:])
	}
}

// WriteStateDigest streams the switch's group table (sorted) into w —
// feed it a hash to fingerprint the device.
func (sw *NetworkSwitch) WriteStateDigest(w io.Writer) {
	for _, a := range sortedAddrs(sw.groupTable) {
		writeAddr(w, a)
		writeBitmap(w, sw.groupTable[a])
	}
}

// WriteStateDigest streams the hypervisor's flow table and receive
// filters (sorted) into w. Safe to call while the fabric is quiet.
func (hv *Hypervisor) WriteStateDigest(w io.Writer) {
	hv.mu.RLock()
	defer hv.mu.RUnlock()
	var b [8]byte
	for _, a := range sortedAddrs(hv.flows) {
		writeAddr(w, a)
		f := hv.flows[a]
		binary.BigEndian.PutUint64(b[:], uint64(len(f.stream)))
		w.Write(b[:])
		w.Write(f.stream)
	}
	for _, a := range hv.receiving.sorted() {
		writeAddr(w, a)
		w.Write([]byte{1})
	}
}
