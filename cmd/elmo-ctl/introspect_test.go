package main

import (
	"strings"
	"testing"

	"elmo"
	"elmo/internal/obs"
	"elmo/internal/telemetry"
)

// TestIntrospectAgainstLivePlane runs the introspect client against a
// real ops plane: cluster, traffic, telemetry server, then every
// subcommand end to end.
func TestIntrospectAgainstLivePlane(t *testing.T) {
	cl, err := elmo.NewCluster(elmo.PaperExampleTopology(), elmo.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	key := elmo.GroupKey{Tenant: 1, Group: 1}
	members := map[elmo.HostID]elmo.Role{0: elmo.RoleBoth, 1: elmo.RoleBoth, 40: elmo.RoleBoth}
	if err := cl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	plane := obs.New(obs.Options{Topology: cl.Topo, Registry: reg, Controller: cl.Ctrl})
	cl.Fab.SetObserver(plane)
	plane.Enable()
	srv, err := telemetry.Serve("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	plane.Mount(srv)

	for i := 0; i < 3; i++ {
		if _, err := cl.Send(0, key, []byte("introspect probe")); err != nil {
			t.Fatal(err)
		}
	}

	run := func(args ...string) string {
		t.Helper()
		var out strings.Builder
		if err := runIntrospect(append([]string{"-addr", srv.Addr()}, args...), &out); err != nil {
			t.Fatalf("introspect %v: %v\n%s", args, err, out.String())
		}
		return out.String()
	}

	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"groups"}, []string{"1 groups", "vni=1 group=1", "members=3", "heavy hitters", "~3 pkts"}},
		{[]string{"group", "1", "1"}, []string{"members: 0:both 1:both 40:both", "tree:", "sender headers:", "encoding:"}},
		{[]string{"-n", "3", "links"}, []string{"directed links", "host0->leaf0", "B/s"}},
		{[]string{"controller"}, []string{"1 groups\n", "updates: hypervisor="}},
		{[]string{"slo"}, []string{"HEALTHY", "delivery_ratio", "send_latency", "threshold"}},
	} {
		got := run(tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(got, want) {
				t.Errorf("introspect %v missing %q:\n%s", tc.args, want, got)
			}
		}
	}

	// Error paths: bad subcommand, missing args, unreachable server.
	var sb strings.Builder
	if err := runIntrospect([]string{"-addr", srv.Addr(), "bogus"}, &sb); err == nil {
		t.Error("bogus subcommand accepted")
	}
	if err := runIntrospect([]string{"-addr", srv.Addr(), "group", "1"}, &sb); err == nil {
		t.Error("group without id accepted")
	}
	if err := runIntrospect([]string{"-addr", srv.Addr(), "group", "9", "9"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("missing group: %v", err)
	}
	if err := runIntrospect([]string{}, &sb); err == nil {
		t.Error("no subcommand accepted")
	}
}
