package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"elmo/internal/topology"
)

func TestParseInts(t *testing.T) {
	for in, want := range map[string][]int{
		"0,6,12": {0, 6, 12},
		"5":      {5},
	} {
		got, err := parseInts(in)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("parseInts(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Every bad list is refused, naming the first bad field.
	for in, field := range map[string]string{
		"":       `""`,
		"a,3,b4": `"a"`,
		",,7,":   `""`,
		"-3":     `"-3"`,
		"6,1x2":  `"1x2"`,
		"3,,4":   `""`,
		"0, 6":   `" 6"`,
	} {
		got, err := parseInts(in)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("parseInts(%q) = %v, %v; want an error naming field %s", in, got, err, field)
		}
	}
}

func TestMaxVMsFor(t *testing.T) {
	full := topology.FacebookFabric()
	// P=1: one VM per rack, 576 racks -> 432 (3/4 headroom).
	if got := maxVMsFor(full, 1); got != 432 {
		t.Fatalf("P=1: %d", got)
	}
	// P=12 <= 48 hosts/leaf: 12/rack.
	if got := maxVMsFor(full, 12); got != 5000 {
		t.Fatalf("P=12: %d (capacity exceeds the paper's 5000 cap)", got)
	}
	// P larger than hosts/leaf is bounded by distinct hosts.
	tiny := topology.Config{Pods: 2, SpinesPerPod: 1, LeavesPerPod: 2, HostsPerLeaf: 4, CoresPerPlane: 1}
	if got := maxVMsFor(tiny, 12); got != 2*2*4*3/4 {
		t.Fatalf("tiny P=12: %d", got)
	}
	if got := maxVMsFor(topology.Config{Pods: 1, SpinesPerPod: 1, LeavesPerPod: 1, HostsPerLeaf: 1, CoresPerPlane: 1}, 1); got != 5 {
		t.Fatalf("floor: %d", got)
	}
}

func TestEffectiveMeanVMs(t *testing.T) {
	full := topology.FacebookFabric()
	// Explicit flag wins.
	if got := effectiveMeanVMs(42, full, 3000); got != 42 {
		t.Fatalf("explicit: %f", got)
	}
	// Auto: capped at the paper's 178.77 when capacity allows.
	if got := effectiveMeanVMs(0, full, 1000); got != 178.77 {
		t.Fatalf("auto large fabric: %f", got)
	}
	// Auto on tight fabrics: scaled to 70%% occupancy.
	got := effectiveMeanVMs(0, full, 3000)
	want := 0.7 * float64(27648*20) / 3000
	if got != want {
		t.Fatalf("auto tight: %f want %f", got, want)
	}
	// Floor.
	tiny := topology.Config{Pods: 1, SpinesPerPod: 1, LeavesPerPod: 1, HostsPerLeaf: 1, CoresPerPlane: 1}
	if got := effectiveMeanVMs(0, tiny, 100); got != 5 {
		t.Fatalf("floor: %f", got)
	}
}

func TestCSVWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := newCSVWriter(dir, "out.csv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	w.row(1, 2.5)
	w.row("x", 0.000001)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/out.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 || lines[0] != "a,b" || lines[1] != "1,2.5" {
		t.Fatalf("csv = %q", string(data))
	}
}
