package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"elmo/internal/controller"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// TestConcurrentIntrospection hammers the /debug/elmo/* endpoints
// while InstallBatch and membership churn run, asserting every
// response is an internally consistent snapshot: the controller view's
// cumulative update counters never go backwards, group summaries always
// have coherent member/role counts and match the reported total, and
// single-group details never show a half-applied membership op. Once
// the writer stops, the controller view equals the controller's own
// counters. Run under -race this also proves the introspection hooks
// are data-race-free against the concurrent write path.
func TestConcurrentIntrospection(t *testing.T) {
	topo := paperTopo()
	ctrl, err := controller.New(topo, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p := New(Options{Topology: topo, Registry: reg, Controller: ctrl})
	srv, err := telemetry.Serve("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p.Mount(srv)
	base := "http://" + srv.Addr()

	// Seed a stable group the detail probe can always find.
	stable := controller.GroupKey{Tenant: 1, Group: 1}
	members := map[topology.HostID]controller.Role{0: controller.RoleBoth, 40: controller.RoleBoth}
	if _, err := ctrl.CreateGroup(stable, members); err != nil {
		t.Fatal(err)
	}

	const (
		rounds  = 8
		perWave = 40
		probes  = 60
	)
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: waves of InstallBatch + churn on the stable group's
	// cohort plus removals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			specs := make([]controller.BatchSpec, 0, perWave)
			for i := 0; i < perWave; i++ {
				specs = append(specs, controller.BatchSpec{
					Key: controller.GroupKey{Tenant: 7, Group: uint32(r*perWave + i)},
					Members: map[topology.HostID]controller.Role{
						topology.HostID(i % topo.NumHosts()):        controller.RoleBoth,
						topology.HostID((i + 9) % topo.NumHosts()):  controller.RoleReceiver,
						topology.HostID((i + 17) % topo.NumHosts()): controller.RoleReceiver,
					},
				})
			}
			if _, err := ctrl.InstallBatch(specs, controller.BatchOptions{Workers: 4}); err != nil {
				t.Errorf("InstallBatch: %v", err)
				return
			}
			// Churn: join/leave on the stable group.
			h := topology.HostID((r*13 + 3) % topo.NumHosts())
			if err := ctrl.Join(stable, h, controller.RoleReceiver); err != nil {
				t.Errorf("Join: %v", err)
				return
			}
			if err := ctrl.Leave(stable, h, controller.RoleReceiver); err != nil {
				t.Errorf("Leave: %v", err)
				return
			}
			// Remove half of the previous wave.
			if r > 0 {
				for i := 0; i < perWave/2; i++ {
					key := controller.GroupKey{Tenant: 7, Group: uint32((r-1)*perWave + i)}
					if err := ctrl.RemoveGroup(key); err != nil {
						t.Errorf("RemoveGroup: %v", err)
						return
					}
				}
			}
		}
	}()

	// Readers: three endpoint probes running until the writer is done,
	// each checking its own invariants on every response.
	probe := func(check func() error) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				if i >= probes {
					return
				}
			default:
			}
			if err := check(); err != nil {
				t.Error(err)
				return
			}
			if i > 100000 { // liveness backstop; never hit in practice
				return
			}
		}
	}

	getController := func() (ControllerResponse, error) {
		var ci ControllerResponse
		resp, err := http.Get(base + "/debug/elmo/controller")
		if err != nil {
			return ci, err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&ci); err != nil {
			return ci, fmt.Errorf("controller decode: %w", err)
		}
		return ci, nil
	}
	wg.Add(1)
	var last controller.ControllerInfo
	go probe(func() error {
		ci, err := getController()
		if err != nil {
			return err
		}
		// The stable group is never removed, and update counters only
		// grow: a count below the last one seen is a torn read.
		if ci.TotalGroups < 1 || ci.HypervisorUpdates < last.HypervisorUpdates ||
			ci.LeafUpdates < last.LeafUpdates || ci.SpineUpdates < last.SpineUpdates {
			return fmt.Errorf("controller view %+v after %+v", ci.ControllerInfo, last)
		}
		last = ci.ControllerInfo
		return nil
	})

	wg.Add(1)
	go probe(func() error {
		var gr GroupsResponse
		resp, err := http.Get(base + "/debug/elmo/groups?limit=0")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			return fmt.Errorf("groups decode: %w", err)
		}
		if len(gr.Groups) != gr.TotalGroups {
			return fmt.Errorf("groups list %d != total %d from same cut", len(gr.Groups), gr.TotalGroups)
		}
		for _, g := range gr.Groups {
			if g.Members < 1 || g.Senders > g.Members || g.Receivers > g.Members ||
				g.Senders+g.Receivers < g.Members {
				return fmt.Errorf("incoherent summary: %+v", g)
			}
		}
		return nil
	})

	wg.Add(1)
	go probe(func() error {
		var d controller.GroupDetail
		resp, err := http.Get(base + "/debug/elmo/group/1/1")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stable group vanished: %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return fmt.Errorf("detail decode: %w", err)
		}
		if len(d.MemberList) != d.Members {
			return fmt.Errorf("member list %d != members %d", len(d.MemberList), d.Members)
		}
		// The stable group oscillates between its 2 base members and
		// one extra receiver; anything else is a torn membership read.
		if d.Members != 2 && d.Members != 3 {
			return fmt.Errorf("stable group has %d members", d.Members)
		}
		return nil
	})

	wg.Wait()

	// Quiescent: the endpoint reads exactly the controller's own counters.
	ci, err := getController()
	if err != nil {
		t.Fatal(err)
	}
	st := ctrl.Stats()
	if ci.TotalGroups != ctrl.NumGroups() ||
		ci.HypervisorUpdates+ci.LeafUpdates+ci.SpineUpdates+ci.CoreUpdates != st.Total() {
		t.Fatalf("controller view %+v, controller holds %d groups and %d updates",
			ci.ControllerInfo, ctrl.NumGroups(), st.Total())
	}
}
