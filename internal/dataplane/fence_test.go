package dataplane

import (
	"errors"
	"sync"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/telemetry"
)

func TestEpochFenceAdmit(t *testing.T) {
	var f EpochFence

	// Epoch 0 is the lowest epoch: a fence no leader has raised admits it.
	if !f.Admit(0) {
		t.Fatal("epoch 0 rejected on fresh fence")
	}
	if f.Current() != 0 {
		t.Fatalf("epoch 0 raised floor to %d", f.Current())
	}

	// First real epoch raises the floor; replays at the floor pass.
	if !f.Admit(3) || f.Current() != 3 {
		t.Fatalf("admit(3): floor %d", f.Current())
	}
	if !f.Admit(3) {
		t.Fatal("same-epoch install rejected")
	}

	// Lower epochs are fenced and counted; the floor holds.
	if f.Admit(2) {
		t.Fatal("stale epoch 2 admitted past floor 3")
	}
	if f.Admit(1) {
		t.Fatal("stale epoch 1 admitted past floor 3")
	}
	if got := f.Rejected(); got != 2 {
		t.Fatalf("Rejected() = %d, want 2", got)
	}

	// Epoch 0 is stale like any other once the floor has risen.
	if f.Admit(0) || f.Current() != 3 || f.Rejected() != 3 {
		t.Fatalf("epoch 0 past floor 3: floor %d, rejected %d", f.Current(), f.Rejected())
	}

	// A higher epoch advances the floor.
	f.Observe(7)
	if f.Current() != 7 {
		t.Fatalf("Observe(7): floor %d", f.Current())
	}
	if f.Admit(3) {
		t.Fatal("old floor epoch admitted after Observe raised it")
	}
}

func TestEpochFenceConcurrent(t *testing.T) {
	var f EpochFence
	var wg sync.WaitGroup
	for e := uint64(1); e <= 64; e++ {
		wg.Add(1)
		go func(e uint64) {
			defer wg.Done()
			f.Admit(e)
		}(e)
	}
	wg.Wait()
	if f.Current() != 64 {
		t.Fatalf("floor after concurrent admits = %d, want 64", f.Current())
	}
}

func TestSwitchInstallAtFencesStaleEpoch(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	sw := NewLeaf(topo, 3, 4)
	sw.Probe = &Probe{Metrics: m}
	addr := GroupAddr{VNI: 1, Group: 9}
	ports := bitmap.FromPorts(l.LeafDown, 0)

	if err := sw.InstallSRuleAt(2, addr, ports); err != nil {
		t.Fatal(err)
	}
	if sw.SRuleCount() != 1 {
		t.Fatalf("s-rule count %d after fenced install", sw.SRuleCount())
	}

	// A deposed leader at epoch 1 can neither install nor remove.
	err := sw.InstallSRuleAt(1, GroupAddr{VNI: 1, Group: 10}, ports)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale install error = %v", err)
	}
	var se *StaleEpochError
	if !errors.As(err, &se) {
		t.Fatalf("error %T not a *StaleEpochError", err)
	}
	if se.Device != "leaf 3" || se.Epoch != 1 || se.Current != 2 {
		t.Fatalf("StaleEpochError = %+v", se)
	}
	if err := sw.RemoveSRuleAt(1, addr); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale remove error = %v", err)
	}
	if sw.SRuleCount() != 1 {
		t.Fatalf("stale ops changed table: count %d", sw.SRuleCount())
	}
	if got := sw.Fence().Rejected(); got != 2 {
		t.Fatalf("fence rejections %d, want 2", got)
	}
	if got := m.tiers[LinkLeaf].fenced.Value(); got != 2 {
		t.Fatalf("elmo_fencing_rejected_total{tier=leaf} = %d, want 2", got)
	}

	// The successor removes at its own epoch just fine.
	if err := sw.RemoveSRuleAt(2, addr); err != nil {
		t.Fatal(err)
	}
	if sw.SRuleCount() != 0 {
		t.Fatalf("count %d after epoch-2 remove", sw.SRuleCount())
	}
}

func TestHypervisorInstallAtFencesStaleEpoch(t *testing.T) {
	topo := paperTopo()
	l := header.LayoutFor(topo)
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	hv := NewHypervisor(topo, 17)
	hv.Probe = &Probe{Metrics: m}
	addr := GroupAddr{VNI: 2, Group: 4}
	h := encodeFor(t, topo, &header.Header{
		DLeaf: []header.PRule{{Switches: []uint16{0}, Bitmap: bitmap.FromPorts(l.LeafDown, 1)}},
	})

	if err := hv.InstallSenderFlowAt(5, addr, h); err != nil {
		t.Fatal(err)
	}
	if err := hv.SetReceivingAt(5, addr, true); err != nil {
		t.Fatal(err)
	}

	var se *StaleEpochError
	if err := hv.InstallSenderFlowAt(4, addr, h); !errors.As(err, &se) {
		t.Fatalf("stale flow install error = %v", err)
	} else if se.Device != "host 17" || se.Current != 5 {
		t.Fatalf("StaleEpochError = %+v", se)
	}
	if err := hv.RemoveSenderFlowAt(4, addr); !errors.Is(err, ErrStaleEpoch) {
		t.Fatal("stale flow remove admitted")
	}
	if err := hv.SetReceivingAt(4, addr, false); !errors.Is(err, ErrStaleEpoch) {
		t.Fatal("stale receiving update admitted")
	}

	// State is untouched: the sender flow still encapsulates and the
	// group is still receiving.
	if _, err := hv.Encap(addr, []byte("x")); err != nil {
		t.Fatalf("flow lost after fenced ops: %v", err)
	}
	if got := m.tiers[LinkHost].fenced.Value(); got != 3 {
		t.Fatalf("elmo_fencing_rejected_total{tier=host} = %d, want 3", got)
	}
	if got := hv.Fence().Rejected(); got != 3 {
		t.Fatalf("fence rejections %d, want 3", got)
	}
}
