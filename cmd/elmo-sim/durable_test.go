package main

import (
	"strings"
	"testing"

	"elmo/internal/durable"
	"elmo/internal/topology"
)

// TestDurableFingerprint pins the state the -durable scenario builds at
// elmo-sim's default flags, which `make durable` runs: the fingerprint
// it prints. The fingerprint covers state only, so fsync is off here.
func TestDurableFingerprint(t *testing.T) {
	topo := topology.MustNew(topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 8, CoresPerPlane: 2})
	d, _, err := durable.Open(topo, paperController(0, 10000), durable.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	durableWorkload(d, topo, 80, 2000, 0, 1)
	if got, want := d.Controller().Fingerprint(), "5e80d7871e999570"; !strings.HasPrefix(got, want) {
		t.Fatalf("fingerprint %s, want %s…", got, want)
	}
}
