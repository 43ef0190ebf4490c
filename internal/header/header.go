// Package header implements the Elmo packet header (paper §3.1, Fig. 2):
// a sequence of sections ordered by the layers a packet traverses in a
// Clos fabric — upstream leaf, upstream spine, core, downstream spine,
// downstream leaf — each carrying packet rules (p-rules).
//
// A p-rule is a port bitmap plus the list of (logical) switch
// identifiers that should apply it (D1, D3). Upstream rules carry no
// identifiers — the switch on the upstream path is unambiguous — and
// instead carry both downstream delivery ports and either a multipath
// flag or explicit upstream ports (D2, §3.3). Downstream sections may
// end with a default p-rule that any unmatched switch applies (D4).
//
// Sections are popped as the packet ascends/descends (D2d): a switch
// removes its own layer's section before forwarding, so headers shrink
// at every hop and the traffic overhead of source routing stays low.
//
// The wire format frames each section with a 1-byte tag followed by a
// self-delimiting body, terminated by TagEnd. Bitmap widths are not
// carried in the packet: like a P4 program compiled for a concrete
// fabric, both ends share a Layout derived from the topology.
package header

import (
	"fmt"
	"math/bits"

	"elmo/internal/bitmap"
	"elmo/internal/topology"
)

// Version is the Elmo header version encoded by this package.
const Version = 1

// Section tags, in the order sections appear on the wire.
const (
	TagEnd    = 0x00 // terminates the Elmo header; inner packet follows
	TagULeaf  = 0x01 // upstream rule for the source leaf
	TagUSpine = 0x02 // upstream rule for the source spine
	TagCore   = 0x03 // logical-core rule: bitmap over pods
	TagDSpine = 0x04 // downstream spine p-rules (+ optional default)
	TagDLeaf  = 0x05 // downstream leaf p-rules (+ optional default)
)

// Layout fixes the bitmap widths of every section for a concrete
// fabric, and the width of the switch identifiers in its downstream
// p-rules. It plays the role of the P4 program's compile-time header
// definitions: switches and hypervisors exchange packets that are only
// meaningful under the same layout. Build one with LayoutFor.
type Layout struct {
	LeafDown  int // hosts per leaf
	LeafUp    int // spines per pod
	SpineDown int // leaves per pod
	SpineUp   int // cores per plane
	CoreDown  int // pods

	// podIDBits and leafIDBits are the packed widths of a d-spine
	// identifier (a pod) and a d-leaf identifier (a global leaf):
	// ⌈log2 pods⌉ and ⌈log2 leaves⌉ bits, as the paper's §3.1 header
	// accounting prices them. LayoutFor derives them once.
	podIDBits, leafIDBits uint8
}

// LayoutFor derives the layout from a topology.
func LayoutFor(t *topology.Topology) Layout {
	return Layout{
		LeafDown:   t.LeafDownWidth(),
		LeafUp:     t.LeafUpWidth(),
		SpineDown:  t.SpineDownWidth(),
		SpineUp:    t.SpineUpWidth(),
		CoreDown:   t.CoreDownWidth(),
		podIDBits:  idBits(t.CoreDownWidth()),
		leafIDBits: idBits(t.CoreDownWidth() * t.SpineDownWidth()),
	}
}

// idBits is the width that numbers n switches 0…n-1: ⌈log2 n⌉, at
// least one bit.
func idBits(n int) uint8 {
	if n <= 2 {
		return 1
	}
	return uint8(bits.Len(uint(n - 1)))
}

// IdentifierBits returns the wire width of one switch identifier in the
// downstream section with the given tag (TagDSpine or TagDLeaf), and 0
// for any other tag.
func (l Layout) IdentifierBits(tag byte) int {
	_, w, _ := downstreamWidths(l, tag)
	return int(w)
}

// Validate checks that all widths are positive and identifier-sized.
func (l Layout) Validate() error {
	for _, d := range []struct {
		name string
		v    int
	}{
		{"LeafDown", l.LeafDown}, {"LeafUp", l.LeafUp},
		{"SpineDown", l.SpineDown}, {"SpineUp", l.SpineUp},
		{"CoreDown", l.CoreDown},
	} {
		if d.v <= 0 {
			return fmt.Errorf("header: layout %s must be positive, got %d", d.name, d.v)
		}
	}
	if l.podIDBits != idBits(l.CoreDown) || l.leafIDBits != idBits(l.CoreDown*l.SpineDown) {
		return fmt.Errorf("header: layout identifier widths %d/%d do not match its ports (build it with LayoutFor)", l.podIDBits, l.leafIDBits)
	}
	if l.leafIDBits > maxIDBits {
		return fmt.Errorf("header: %d leaves need %d-bit identifiers, limit %d", l.CoreDown*l.SpineDown, l.leafIDBits, maxIDBits)
	}
	return nil
}

// UpstreamRule is the bitmap-only rule used by the source leaf and
// spine (Fig. 2b, type=u). Down carries the member delivery ports at
// this switch; when Multipath is set the switch forwards one copy
// upward via its configured multipath scheme, otherwise it forwards on
// the explicit Up ports (§3.3 failure handling). An UpstreamRule with
// an empty Down, a false Multipath, and an empty Up performs no
// upstream forwarding (single-rack groups).
type UpstreamRule struct {
	Down      bitmap.Bitmap
	Up        bitmap.Bitmap
	Multipath bool
}

// PRule is a downstream packet rule (Fig. 2b, type=d): the output-port
// bitmap shared by the listed logical switches. For the spine section,
// identifiers are pod IDs (one logical spine per pod); for the leaf
// section they are global leaf IDs. On the wire each takes the layout's
// IdentifierBits for the section, not the uint16 it is held in here.
type PRule struct {
	Switches []uint16
	Bitmap   bitmap.Bitmap
}

// Header is the decoded form of an Elmo header. Nil/empty fields mean
// the section is absent (already popped, or never needed — e.g. a
// single-pod group carries no core section).
type Header struct {
	ULeaf  *UpstreamRule
	USpine *UpstreamRule
	Core   *bitmap.Bitmap // bitmap over pods

	DSpine        []PRule
	DSpineDefault *bitmap.Bitmap

	DLeaf        []PRule
	DLeafDefault *bitmap.Bitmap

	// INTEnabled adds an in-band telemetry section (§7 Monitoring):
	// switches on the path append INTRecords that receivers can read.
	// INT holds any records already present (normally empty at the
	// sender).
	INTEnabled bool
	INT        []INTRecord
}
