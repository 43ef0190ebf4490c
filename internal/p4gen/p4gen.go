// Package p4gen emits the P4_16 programs that configure Elmo's
// programmable switches at boot time (paper §2: "The controller relies
// on a high-level language (like P4) to configure the programmable
// switches"; §4: the network-switch implementation matches p-rules in
// the parser with match-and-set, and the ingress control falls back to
// the s-rule group table and the default p-rule).
//
// The generated program is specialized to a concrete fabric layout —
// bitmap widths and p-rule counts become fixed-width header fields and
// unrolled parser states, exactly how the paper sidesteps match-action
// tables for p-rule lookup (Appendix A shows why tables are
// prohibitively expensive). The output mirrors the authors' published
// p4-programs repository in structure: one program per switch tier,
// plus the hypervisor encapsulation pipeline.
package p4gen

import (
	"fmt"
	"strings"

	"elmo/internal/bitmap"
	"elmo/internal/header"
)

// Tier selects which switch program to generate.
type Tier int

const (
	// TierLeaf generates the leaf (ToR) program: u-leaf handling
	// upstream, d-leaf match-and-set downstream, host-facing strip.
	TierLeaf Tier = iota
	// TierSpine generates the spine program.
	TierSpine
	// TierCore generates the core program (bitmap fan-out only).
	TierCore
)

func (t Tier) String() string {
	switch t {
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	case TierCore:
		return "core"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Options bounds the unrolled parser.
type Options struct {
	// MaxSpineRules / MaxLeafRules unroll this many p-rule parser
	// states per downstream section (HMax per layer + default).
	MaxSpineRules, MaxLeafRules int
	// MaxSwitchesPerRule unrolls identifier comparisons per rule (Kmax).
	MaxSwitchesPerRule int
	// EnableINT adds the telemetry section and per-hop stamping.
	EnableINT bool
}

// NetworkSwitchProgram generates the P4_16 program for one switch tier
// under the given layout.
func NetworkSwitchProgram(l header.Layout, tier Tier, opts Options) (string, error) {
	if err := l.Validate(); err != nil {
		return "", err
	}
	if opts.MaxSpineRules < 0 || opts.MaxLeafRules < 0 || opts.MaxSwitchesPerRule < 1 {
		return "", fmt.Errorf("p4gen: invalid options %+v", opts)
	}
	var b strings.Builder
	p := &printer{b: &b}
	p.f("// Elmo %s switch — generated for layout %+v", tier, l)
	p.f("// Source: elmo/internal/p4gen (do not edit)")
	p.f("#include <core.p4>")
	p.f("#include <v1model.p4>")
	p.f("")
	emitHeaderTypes(p, l, tier, opts)
	emitParser(p, l, tier, opts)
	emitIngress(p, l, tier, opts)
	emitEgressAndDeparser(p, l, tier, opts)
	p.f("V1Switch(ElmoParser(), verifyChecksum(), ElmoIngress(), ElmoEgress(), computeChecksum(), ElmoDeparser()) main;")
	return b.String(), nil
}

type printer struct {
	b      *strings.Builder
	indent int
}

func (p *printer) f(format string, args ...interface{}) {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
	fmt.Fprintf(p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *printer) open(format string, args ...interface{}) {
	p.f(format+" {", args...)
	p.indent++
}

func (p *printer) close(suffix string) {
	p.indent--
	p.f("}%s", suffix)
}

// bits returns the wire width in bits for a bitmap of the given port
// count (byte-aligned, as the Go encoder emits it).
func bits(width int) int { return 8 * bitmap.ByteLen(width) }

func emitHeaderTypes(p *printer, l header.Layout, tier Tier, opts Options) {
	p.f("// --- Outer encapsulation (Ethernet/IPv4/UDP/VXLAN) ---")
	p.open("header ethernet_t")
	p.f("bit<48> dst_addr; bit<48> src_addr; bit<16> ether_type;")
	p.close("")
	p.open("header ipv4_t")
	p.f("bit<4> version; bit<4> ihl; bit<8> dscp; bit<16> total_len;")
	p.f("bit<16> identification; bit<3> flags; bit<13> frag_offset;")
	p.f("bit<8> ttl; bit<8> protocol; bit<16> hdr_checksum;")
	p.f("bit<32> src_addr; bit<32> dst_addr;")
	p.close("")
	p.open("header udp_t")
	p.f("bit<16> src_port; bit<16> dst_port; bit<16> length; bit<16> checksum;")
	p.close("")
	p.open("header vxlan_t")
	p.f("bit<8> flags; bit<8> elmo_version; bit<16> reserved; bit<24> vni; bit<8> reserved2;")
	p.close("")
	p.f("")
	p.f("// --- Elmo section stream ---")
	p.open("header elmo_tag_t")
	p.f("bit<8> tag;")
	p.close("")
	p.open("header elmo_uleaf_t")
	p.f("bit<8> flags; bit<%d> down_ports; bit<%d> up_ports;", bits(l.LeafDown), bits(l.LeafUp))
	p.close("")
	p.open("header elmo_uspine_t")
	p.f("bit<8> flags; bit<%d> down_ports; bit<%d> up_ports;", bits(l.SpineDown), bits(l.SpineUp))
	p.close("")
	p.open("header elmo_core_t")
	p.f("bit<%d> pods;", bits(l.CoreDown))
	p.close("")
	p.open("header elmo_rule_count_t")
	p.f("bit<8> count;")
	p.close("")
	// One header type per (layer, switch-id slot) — identifiers are
	// packed at the layout's per-section width, rounded up to whole
	// bytes, and Kmax bounds the list.
	p.open("header elmo_dspine_rule_t")
	p.f("bit<8> n_ids; bit<%d> ids; bit<%d> ports;", idListBits(l, header.TagDSpine, opts), bits(l.SpineDown))
	p.close("")
	p.open("header elmo_dleaf_rule_t")
	p.f("bit<8> n_ids; bit<%d> ids; bit<%d> ports;", idListBits(l, header.TagDLeaf, opts), bits(l.LeafDown))
	p.close("")
	p.open("header elmo_default_t")
	p.f("bit<8> present; bit<%d> ports;", bits(l.LeafDown))
	p.close("")
	if opts.EnableINT {
		p.open("header elmo_int_record_t")
		p.f("bit<8> tier; bit<%d> switch_id; bit<8> meta;", header.INTIdentifierBits)
		p.close("")
	}
	p.f("")
	p.open("struct elmo_metadata_t")
	p.f("bit<1> matched; bit<%d> out_ports; bit<1> has_default; bit<%d> default_ports;",
		maxInt(bits(l.LeafDown), bits(l.SpineDown)), maxInt(bits(l.LeafDown), bits(l.SpineDown)))
	p.f("bit<1> multipath; bit<%d> my_id;", myIDBits(l, tier))
	p.close("")
	p.f("")
}

// idListBits is the wire width of a full identifier list of the section
// with the given tag: Kmax identifiers at the layout's width, padded to
// a whole byte as the Go encoder packs them.
func idListBits(l header.Layout, tag byte, opts Options) int {
	return bits(l.IdentifierBits(tag) * opts.MaxSwitchesPerRule)
}

// myIDBits is the width of the identifier a tier's parser compares
// p-rules against — the global leaf ID at a leaf, the pod ID at a spine;
// a core matches no p-rule and keeps only its INT identifier.
func myIDBits(l header.Layout, tier Tier) int {
	switch tier {
	case TierLeaf:
		return l.IdentifierBits(header.TagDLeaf)
	case TierSpine:
		return l.IdentifierBits(header.TagDSpine)
	default:
		return header.INTIdentifierBits
	}
}

func emitParser(p *printer, l header.Layout, tier Tier, opts Options) {
	p.f("// The parser is the p-rule matcher (§4.1): each unrolled state")
	p.f("// compares the rule's identifier list against the switch's own")
	p.f("// identifier (match-and-set) and records the first hit's bitmap")
	p.f("// in metadata, skipping the remaining rules structurally.")
	p.open("parser ElmoParser(packet_in pkt, out headers hdr, inout elmo_metadata_t meta, inout standard_metadata_t std)")
	p.open("state start")
	p.f("pkt.extract(hdr.ethernet);")
	p.f("pkt.extract(hdr.ipv4);")
	p.f("pkt.extract(hdr.udp);")
	p.f("pkt.extract(hdr.vxlan);")
	p.f("transition select(hdr.vxlan.elmo_version) { %d: parse_section; default: accept; }", header.Version)
	p.close("")
	p.open("state parse_section")
	p.f("transition select(pkt.lookahead<bit<8>>()) {")
	p.f("    0x%02x: parse_uleaf;", header.TagULeaf)
	p.f("    0x%02x: parse_uspine;", header.TagUSpine)
	p.f("    0x%02x: parse_core;", header.TagCore)
	p.f("    0x%02x: parse_dspine_count;", header.TagDSpine)
	p.f("    0x%02x: parse_dleaf_count;", header.TagDLeaf)
	if opts.EnableINT {
		p.f("    0x%02x: parse_int;", header.TagINT)
	}
	p.f("    default: accept;")
	p.f("}")
	p.close("")
	p.open("state parse_uleaf")
	p.f("pkt.extract(hdr.uleaf_tag); pkt.extract(hdr.uleaf);")
	p.f("meta.multipath = hdr.uleaf.flags[0:0];")
	p.f("transition parse_section;")
	p.close("")
	p.open("state parse_uspine")
	p.f("pkt.extract(hdr.uspine_tag); pkt.extract(hdr.uspine);")
	p.f("transition parse_section;")
	p.close("")
	p.open("state parse_core")
	p.f("pkt.extract(hdr.core_tag); pkt.extract(hdr.core);")
	p.f("transition parse_section;")
	p.close("")
	emitRuleStates(p, "dspine", opts.MaxSpineRules, bits(l.SpineDown))
	emitRuleStates(p, "dleaf", opts.MaxLeafRules, bits(l.LeafDown))
	if opts.EnableINT {
		p.open("state parse_int")
		p.f("pkt.extract(hdr.int_tag); pkt.extract(hdr.int_count);")
		p.f("transition accept; // records parsed by the egress stamper")
		p.close("")
	}
	p.close(" // parser")
	p.f("")
}

// emitRuleStates unrolls the match-and-set chain for one downstream
// section: state i extracts rule i, compares identifiers against
// meta.my_id, and either records the bitmap or falls through to rule
// i+1, ending at the optional default rule.
func emitRuleStates(p *printer, section string, n, portBits int) {
	p.open("state parse_%s_count", section)
	p.f("pkt.extract(hdr.%s_tag); pkt.extract(hdr.%s_count);", section, section)
	if n > 0 {
		p.f("transition select(hdr.%s_count.count) { 0: parse_%s_default; default: parse_%s_rule_0; }",
			section, section, section)
	} else {
		p.f("transition parse_%s_default;", section)
	}
	p.close("")
	for i := 0; i < n; i++ {
		p.open("state parse_%s_rule_%d", section, i)
		p.f("pkt.extract(hdr.%s_rules[%d]);", section, i)
		p.f("// match-and-set: record the bitmap when an identifier hits")
		p.f("transition select(elmo_id_match(hdr.%s_rules[%d], meta.my_id)) {", section, i)
		if i+1 < n {
			p.f("    1: parse_%s_matched_%d;", section, i)
			p.f("    default: select(hdr.%s_count.count) { %d: parse_%s_default; default: parse_%s_rule_%d; };",
				section, i+1, section, section, i+1)
		} else {
			p.f("    1: parse_%s_matched_%d;", section, i)
			p.f("    default: parse_%s_default;", section)
		}
		p.f("}")
		p.close("")
		p.open("state parse_%s_matched_%d", section, i)
		p.f("meta.matched = 1;")
		p.f("meta.out_ports = (bit<%d>)hdr.%s_rules[%d].ports;", portBits, section, i)
		p.f("transition parse_%s_skip_%d;", section, i)
		p.close("")
	}
	p.open("state parse_%s_default", section)
	p.f("pkt.extract(hdr.%s_default);", section)
	p.f("meta.has_default = (bit<1>)hdr.%s_default.present;", section)
	p.f("transition parse_section;")
	p.close("")
}

func emitIngress(p *printer, l header.Layout, tier Tier, opts Options) {
	p.f("// Ingress control flow (§4.1): matched p-rule bitmap, else the")
	p.f("// s-rule group table keyed by (VNI, group IP), else the default")
	p.f("// p-rule, else drop.")
	p.open("control ElmoIngress(inout headers hdr, inout elmo_metadata_t meta, inout standard_metadata_t std)")
	p.open("action set_srule_ports(bit<%d> ports)", maxInt(bits(l.LeafDown), bits(l.SpineDown)))
	p.f("meta.out_ports = ports; meta.matched = 1;")
	p.close("")
	p.open("table srule_group_table")
	p.f("key = { hdr.vxlan.vni: exact; hdr.ipv4.dst_addr: exact; }")
	p.f("actions = { set_srule_ports; NoAction; }")
	p.f("size = 10000; // Fmax")
	p.close("")
	p.open("apply")
	switch tier {
	case TierCore:
		p.f("bitmap_port_select(hdr.core.pods); // one copy per pod bit")
	default:
		p.f("if (meta.matched == 1) {")
		p.f("    bitmap_port_select(meta.out_ports);")
		p.f("} else if (srule_group_table.apply().hit) {")
		p.f("    bitmap_port_select(meta.out_ports);")
		p.f("} else if (meta.has_default == 1) {")
		p.f("    bitmap_port_select(meta.default_ports);")
		p.f("} else {")
		p.f("    mark_to_drop(std);")
		p.f("}")
		if tier == TierLeaf {
			p.f("// upstream direction: deliver down_ports and multipath/up_ports")
			p.f("if (hdr.uleaf.isValid()) {")
			p.f("    bitmap_port_select(hdr.uleaf.down_ports);")
			p.f("    if (meta.multipath == 1) { ecmp_select_upstream(); }")
			p.f("    else { bitmap_port_select_up(hdr.uleaf.up_ports); }")
			p.f("}")
		}
		if tier == TierSpine {
			p.f("if (hdr.uspine.isValid()) {")
			p.f("    bitmap_port_select(hdr.uspine.down_ports);")
			p.f("    if (meta.multipath == 1) { ecmp_select_upstream(); }")
			p.f("    else { bitmap_port_select_up(hdr.uspine.up_ports); }")
			p.f("}")
		}
	}
	p.close("")
	p.close(" // ingress")
	p.f("")
}

func emitEgressAndDeparser(p *printer, l header.Layout, tier Tier, opts Options) {
	p.f("// Egress pops the sections the next tier no longer needs (D2d);")
	p.f("// host-facing ports strip every p-rule section (§4.1).")
	p.open("control ElmoEgress(inout headers hdr, inout elmo_metadata_t meta, inout standard_metadata_t std)")
	p.open("apply")
	switch tier {
	case TierLeaf:
		p.f("if (is_host_port(std.egress_port)) { invalidate_all_prules(hdr); }")
		p.f("else { hdr.uleaf_tag.setInvalid(); hdr.uleaf.setInvalid(); }")
	case TierSpine:
		p.f("if (is_down_port(std.egress_port)) { invalidate_through_dspine(hdr); }")
		p.f("else { hdr.uspine_tag.setInvalid(); hdr.uspine.setInvalid(); }")
	case TierCore:
		p.f("hdr.core_tag.setInvalid(); hdr.core.setInvalid();")
	}
	if opts.EnableINT {
		p.f("append_int_record(hdr, %d /* tier */, meta.my_id, hdr.ipv4.ttl);", int(tier)+1)
	}
	p.close("")
	p.close(" // egress")
	p.f("")
	p.open("control ElmoDeparser(packet_out pkt, in headers hdr)")
	p.open("apply")
	p.f("pkt.emit(hdr);")
	p.close("")
	p.close(" // deparser")
	p.f("")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// HypervisorPipeline emits the PISCES-style flow-rule template the
// hypervisor switch uses: a single set_field action writing the whole
// precomputed p-rule blob in one call (§4.2 — per-rule writes collapse
// throughput; see apps.PerRuleWrite for the measured ablation).
func HypervisorPipeline(l header.Layout) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# PISCES/OVS flow template for Elmo sender flows (one write per packet)\n")
	fmt.Fprintf(&b, "# layout: %+v\n", l)
	fmt.Fprintf(&b, "table=multicast_groups, priority=100,\n")
	fmt.Fprintf(&b, "  match: tun_id=VNI, ip_dst=GROUP_IP (239/8)\n")
	fmt.Fprintf(&b, "  actions: set_field(elmo_blob=PRECOMPUTED_SECTION_STREAM),\n")
	fmt.Fprintf(&b, "           set_field(vxlan.elmo_version=%d), output(uplink)\n", header.Version)
	fmt.Fprintf(&b, "table=receive_filter, priority=100,\n")
	fmt.Fprintf(&b, "  match: tun_id=VNI, ip_dst=GROUP_IP, local_member=true\n")
	fmt.Fprintf(&b, "  actions: decap_all(), output(vm_port)\n")
	fmt.Fprintf(&b, "table=receive_filter, priority=1,\n")
	fmt.Fprintf(&b, "  match: ip_dst=239.0.0.0/8\n")
	fmt.Fprintf(&b, "  actions: drop()  # spurious copies from shared bitmaps/default rules\n")
	return b.String()
}
