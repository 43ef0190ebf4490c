package header_test

import (
	"fmt"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// ExampleConsumeDownstreamInto walks the paper's forwarding pipeline by
// hand: a downstream spine pops its section (matching its pod's
// p-rule), then the receiver leaf pops the leaf section, leaving only
// the terminator for the host.
func ExampleConsumeDownstreamInto() {
	topo := topology.MustNew(topology.PaperExample())
	l := header.LayoutFor(topo)
	h := &header.Header{
		DSpine: []header.PRule{
			{Switches: []uint16{2}, Bitmap: bitmap.FromPorts(l.SpineDown, 1)},
		},
		DLeaf: []header.PRule{
			{Switches: []uint16{5}, Bitmap: bitmap.FromPorts(l.LeafDown, 0)},
		},
	}
	stream, _ := header.Encode(l, h)
	fmt.Printf("at core exit: %d bytes\n", len(stream))

	// Spine of pod 2 matches its p-rule and pops the spine section.
	var m header.DownstreamMatch
	rest, _ := header.ConsumeDownstreamInto(l, header.TagDSpine, 2, stream, &m)
	fmt.Printf("spine pod 2: forward to leaf ports %v, %d bytes remain\n",
		m.Bitmap.Ports(), len(rest))

	// Leaf 5 matches the leaf section and delivers to host ports.
	rest, _ = header.ConsumeDownstreamInto(l, header.TagDLeaf, 5, rest, &m)
	fmt.Printf("leaf 5: deliver to host ports %v, %d bytes remain\n",
		m.Bitmap.Ports(), len(rest))
	// Output:
	// at core exit: 13 bytes
	// spine pod 2: forward to leaf ports [1], 7 bytes remain
	// leaf 5: deliver to host ports [0], 1 bytes remain
}
