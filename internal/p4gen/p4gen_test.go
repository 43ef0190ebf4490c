package p4gen

import (
	"strings"
	"testing"

	"elmo/internal/header"
	"elmo/internal/topology"
)

func paperLayout() header.Layout {
	return header.LayoutFor(topology.MustNew(topology.FacebookFabric()))
}

// paperOptions are the evaluation's budgets: 2 spine and 30 leaf
// p-rules, Kmax 2.
var paperOptions = Options{MaxSpineRules: 2, MaxLeafRules: 30, MaxSwitchesPerRule: 2}

func TestProgramsGenerateForAllTiers(t *testing.T) {
	l := paperLayout()
	for _, tier := range []Tier{TierLeaf, TierSpine, TierCore} {
		prog, err := NetworkSwitchProgram(l, tier, paperOptions)
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
		for _, want := range []string{
			"#include <v1model.p4>",
			"parser ElmoParser",
			"control ElmoIngress",
			"control ElmoDeparser",
			"V1Switch(",
			"header vxlan_t",
		} {
			if !strings.Contains(prog, want) {
				t.Fatalf("%v: program missing %q", tier, want)
			}
		}
		if balance(prog) != 0 {
			t.Fatalf("%v: unbalanced braces (%d)", tier, balance(prog))
		}
	}
}

func balance(s string) int {
	n := 0
	for _, c := range s {
		switch c {
		case '{':
			n++
		case '}':
			n--
		}
	}
	return n
}

func TestParserUnrollMatchesBudget(t *testing.T) {
	l := paperLayout()
	opts := paperOptions // 30 leaf rules, 2 spine rules
	prog, err := NetworkSwitchProgram(l, TierLeaf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(prog, "state parse_dleaf_rule_"); got != opts.MaxLeafRules {
		t.Fatalf("leaf rule states = %d, want %d", got, opts.MaxLeafRules)
	}
	if got := strings.Count(prog, "state parse_dspine_rule_"); got != opts.MaxSpineRules {
		t.Fatalf("spine rule states = %d, want %d", got, opts.MaxSpineRules)
	}
	// Bitmap widths reflect the layout (48 hosts/leaf -> 48-bit field).
	if !strings.Contains(prog, "bit<48> down_ports") {
		t.Fatal("leaf down_ports width missing")
	}
	// Identifier lists take the layout's packed widths: 12 pods and 576
	// leaves give 4- and 10-bit identifiers, Kmax=2 of them a byte and
	// three bytes; the leaf parser compares against a 10-bit leaf ID.
	for _, want := range []string{"bit<8> n_ids; bit<8> ids; bit<48> ports;", "bit<8> n_ids; bit<24> ids; bit<48> ports;", "bit<10> my_id;"} {
		if !strings.Contains(prog, want) {
			t.Fatalf("program missing %q", want)
		}
	}
	spine, err := NetworkSwitchProgram(l, TierSpine, opts)
	if err != nil || !strings.Contains(spine, "bit<4> my_id;") {
		t.Fatalf("spine program lacks a 4-bit pod ID (%v)", err)
	}
	// The s-rule table carries the Fmax size.
	if !strings.Contains(prog, "size = 10000") {
		t.Fatal("Fmax table size missing")
	}
	// Ingress control order: matched -> s-rule -> default -> drop.
	idxMatched := strings.Index(prog, "if (meta.matched == 1)")
	idxSRule := strings.Index(prog, "srule_group_table.apply().hit")
	idxDefault := strings.Index(prog, "meta.has_default == 1")
	idxDrop := strings.Index(prog, "mark_to_drop")
	if !(idxMatched < idxSRule && idxSRule < idxDefault && idxDefault < idxDrop) {
		t.Fatal("ingress fallback order wrong")
	}
}

func TestINTOptionAddsStamping(t *testing.T) {
	l := paperLayout()
	opts := paperOptions
	opts.EnableINT = true
	prog, err := NetworkSwitchProgram(l, TierSpine, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog, "elmo_int_record_t") || !strings.Contains(prog, "append_int_record") {
		t.Fatal("INT support missing")
	}
	plain, _ := NetworkSwitchProgram(l, TierSpine, paperOptions)
	if strings.Contains(plain, "append_int_record") {
		t.Fatal("INT emitted without the option")
	}
}

func TestCoreProgramHasNoGroupTableLookup(t *testing.T) {
	l := paperLayout()
	prog, err := NetworkSwitchProgram(l, TierCore, paperOptions)
	if err != nil {
		t.Fatal(err)
	}
	// Cores forward purely from the pods bitmap.
	if !strings.Contains(prog, "bitmap_port_select(hdr.core.pods)") {
		t.Fatal("core fan-out missing")
	}
	if strings.Contains(prog, "srule_group_table.apply()") {
		t.Fatal("core program consults a group table")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	l := paperLayout()
	a, _ := NetworkSwitchProgram(l, TierLeaf, paperOptions)
	b, _ := NetworkSwitchProgram(l, TierLeaf, paperOptions)
	if a != b {
		t.Fatal("generation not deterministic")
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := NetworkSwitchProgram(header.Layout{}, TierLeaf, paperOptions); err == nil {
		t.Fatal("invalid layout accepted")
	}
	bad := paperOptions
	bad.MaxSwitchesPerRule = 0
	if _, err := NetworkSwitchProgram(paperLayout(), TierLeaf, bad); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestHypervisorPipeline(t *testing.T) {
	out := HypervisorPipeline(paperLayout())
	for _, want := range []string{"multicast_groups", "PRECOMPUTED_SECTION_STREAM", "receive_filter", "drop()"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pipeline missing %q", want)
		}
	}
}
