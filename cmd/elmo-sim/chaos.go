package main

import (
	"bytes"
	"fmt"
	"log"

	"elmo/internal/chaos"
	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/reliable"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// runChaos runs the scripted fail→degrade→repair→reconverge scenario
// with the flight recorder narrating: seeded ambient faults on every
// link, a spine flap scripted by a FaultPlan, a monitor that detects
// the flap from probe loss, and a reliable session that must deliver
// 100% in order through all of it.
func runChaos(topoCfg topology.Config, srules int, seed int64) {
	topo := topology.MustNew(topoCfg)
	cfg := paperController(0, srules)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fab := fabric.New(topo, cfg.SRuleCapacity)
	fab.SetFailures(ctrl.Failures())

	rec := trace.New(trace.Config{Capacity: 1 << 16})
	rec.Enable(trace.CatChaos, trace.CatControl)
	ctrl.SetTracer(rec)
	fab.SetTracer(rec)

	inj := chaos.New(chaos.Config{
		Seed: uint64(seed), Drop: 0.03, Duplicate: 0.03, Corrupt: 0.02, Reorder: 0.05,
	})
	inj.Tracer = rec
	fab.SetInjector(inj)

	key := controller.GroupKey{Tenant: 1, Group: 1}
	hosts := tracedHosts(topo)
	sender, receivers := hosts[0], hosts[1:]
	members := make(map[topology.HostID]controller.Role, len(hosts))
	for _, h := range hosts {
		members[h] = controller.RoleBoth
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		log.Fatal(err)
	}
	if _, err := fab.InstallGroupAt(0, ctrl, key); err != nil {
		log.Fatal(err)
	}
	preWire, err := ctrl.SenderStream(key, sender)
	if err != nil {
		log.Fatal(err)
	}

	mon, err := chaos.NewMonitor(ctrl, fab, chaos.MonitorConfig{Tracer: rec})
	if err != nil {
		log.Fatal(err)
	}
	mon.Watch(key, sender)

	sess, err := reliable.NewSession(fab, ctrl, key, sender, 512)
	if err != nil {
		log.Fatal(err)
	}
	sess.ControlLoss = func(uint8, topology.HostID, topology.HostID) bool {
		return inj.Chance(0.05)
	}

	flapped := topo.SpineAt(topo.HostPod(sender), 0)
	const steps, failAt, repairAt = 80, 20, 50
	inj.LoadPlan(chaos.FaultPlan{
		{Step: failAt, Tier: dataplane.LinkSpine, Switch: int32(flapped), Loss: 1.0},
		{Step: repairAt, Tier: dataplane.LinkSpine, Switch: int32(flapped), Loss: 0},
	})
	inj.Enable()

	fmt.Printf("=== chaos scenario: seed %d, tenant %d group %d, sender %d, receivers %v ===\n",
		seed, key.Tenant, key.Group, sender, receivers)
	fmt.Printf("ambient faults per crossing: drop 3%%, dup 3%%, corrupt 2%%, reorder 5%%\n")
	fmt.Printf("fault plan: spine %d dies at step %d, hardware repaired at step %d\n\n", flapped, failAt, repairAt)

	for i := 0; i < steps; i++ {
		applied := inj.Step()
		for _, ev := range applied {
			if ev.Loss > 0 {
				fmt.Printf("step %2d: plan kills %s %d (loss %.0f%%)\n", i+1, ev.Tier, ev.Switch, 100*ev.Loss)
			} else {
				fmt.Printf("step %2d: plan repairs %s %d\n", i+1, ev.Tier, ev.Switch)
			}
		}
		for _, tr := range mon.ProbeRound() {
			verdict := "REPAIRED"
			if tr.Down {
				verdict = "FAILED"
			}
			fmt.Printf("step %2d: monitor detects %s %d %s from probe loss (%d groups impacted), flows refreshed\n",
				i+1, tr.Tier, tr.ID, verdict, tr.Impacted)
			if tr.Down && mon.Degraded(key, sender) {
				fmt.Printf("step %2d: no failure-free path — sender flow pulled, publishing degrades to unicast (§3.3)\n", i+1)
			}
		}
		if err := sess.Publish([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			log.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := sess.Flush(); err != nil {
		log.Fatal(err)
	}

	st := inj.Stats()
	fmt.Printf("\nfaults fired over %d crossings: %d drops, %d dups, %d corrupts, %d delays\n",
		st.Crossings, st.Drops, st.Dups, st.Corrupts, st.Delays)
	fmt.Printf("reliable layer: %d NAKs, %d retries after control loss, %d control drops, %d corrupt frames, %d unicast fallbacks\n",
		sess.NAKs, sess.NAKRetries, sess.ControlDrops, sess.CorruptFrames, sess.UnicastFallbacks)
	for _, h := range receivers {
		got := sess.Delivered(h)
		ordered := true
		for i, p := range got {
			if string(p) != fmt.Sprintf("msg-%d", i) {
				ordered = false
			}
		}
		fmt.Printf("host %d: delivered %d/%d in order: %v\n", h, len(got), steps, ordered)
	}

	postWire, err := ctrl.SenderStream(key, sender)
	if err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(preWire, postWire) {
		fmt.Printf("\npost-repair sender header reconverged to the pre-failure encoding (%d bytes)\n", len(postWire))
	} else {
		fmt.Printf("\nWARNING: post-repair encoding differs from pre-failure\npre  %x\npost %x\n", preWire, postWire)
	}

	fmt.Printf("\ncontrol-plane flight log:\n%s", trace.RenderControl(rec.Snapshot()))
}
