package dataplane

import (
	"elmo/internal/bitmap"
	"elmo/internal/header"
)

// SwitchScratch is the caller-owned working memory for ProcessInto —
// the forwarding-path analogue of cluster.Scratch on the encode path.
// One scratch serves one goroutine's packets; it is not safe for
// concurrent use.
//
// Two lifetimes coexist inside a scratch:
//
//   - The emission list and decode state (alive ports, upstream rule,
//     downstream match, core pods) are valid only until the next
//     ProcessInto call with the same scratch. Callers must consume or
//     copy the returned emissions before processing another packet.
//
//   - The INT arena is append-only across calls: stamped section
//     streams returned in emissions alias it, so queued packets stay
//     valid while later packets are processed. Call Reset only when
//     every packet emitted since the previous Reset is dead (fully
//     forwarded or dropped) — typically once per fabric send or per
//     datagram batch. Arena growth reallocates and leaves the old
//     backing array to the still-live slices, so growth never corrupts
//     queued packets.
type SwitchScratch struct {
	emissions []Emission
	alive     []int
	// arena backs INT-stamped streams (append-only between Resets).
	arena []byte

	uRule header.UpstreamRule
	match header.DownstreamMatch
	pods  bitmap.Bitmap
}

// Reset recycles the INT arena. Call it only when all packets emitted
// from this scratch since the last Reset are dead; their Elmo streams
// may alias the arena and are clobbered by subsequent stamping.
func (s *SwitchScratch) Reset() {
	s.arena = s.arena[:0]
}
