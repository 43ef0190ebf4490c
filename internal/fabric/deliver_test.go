package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/raceflag"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// refEvent and refHeld are the queue entries the compact event
// replaced: each copy in flight carries a whole packet.
type refEvent struct {
	tier dataplane.LinkTier
	id   int32
	pkt  dataplane.Packet
}

type refHeld struct {
	ev  refEvent
	due int
}

// refState is referenceForward's own working memory; it shares nothing
// with procState, so changing the production queue cannot change the
// oracle.
type refState struct {
	scratch    dataplane.SwitchScratch
	queue      []refEvent
	head       int
	held       []refHeld
	d          *Delivery
	n          int
	vni, group uint32
}

// refAdmit is admit as it was while the queue held whole packets, taking
// the event by value. Frozen.
func (f *Fabric) refAdmit(st *refState, l dataplane.Link, ev refEvent) {
	v := f.probe.Cross(l, st.vni, st.group, ev.pkt.WireSize())
	if v == (dataplane.FaultVerdict{}) {
		st.queue = append(st.queue, ev)
		return
	}
	if v.Drop {
		st.d.FaultDrops++
		return
	}
	if v.Corrupt {
		st.d.FaultCorrupts++
		ev.pkt.Elmo = append([]byte(nil), ev.pkt.Elmo...)
		f.probe.Corrupt(ev.pkt.Elmo)
	}
	copies := 1
	if v.Duplicate {
		copies = 2
		st.d.FaultDups++
		st.d.LinkBytes += ev.pkt.WireSize()
		st.d.Links++
	}
	if v.DelaySteps > 0 {
		st.d.FaultDelays++
	}
	for i := 0; i < copies; i++ {
		if v.DelaySteps > 0 {
			st.held = append(st.held, refHeld{ev: ev, due: st.n + int(v.DelaySteps)})
		} else {
			st.queue = append(st.queue, ev)
		}
	}
}

// referenceForward is forward as it was before host copies moved behind
// the walk and before the queue went compact: every event carries a
// whole packet, each host event is delivered the moment the loop pops
// it, into a Received map made with room for 16. Frozen; the
// differential test below holds forward to it. It returns its queue,
// which still holds every event of the send.
func (f *Fabric) referenceForward(src topology.HostID, pkt dataplane.Packet) (*Delivery, []refEvent, error) {
	st := &refState{d: &Delivery{Received: make(map[topology.HostID][]byte, 16)}}
	d := st.d
	if a, ok := dataplane.GroupAddrFromOuter(pkt.Outer); ok {
		st.vni, st.group = a.VNI, a.Group
	}
	start := f.probe.SendStart()
	probe := st.vni == dataplane.ProbeVNI
	chaos := f.probe.Faulting()
	maxEvents := 4 * (f.topo.NumSwitches() + f.topo.NumHosts())
	if chaos {
		maxEvents *= 8
	}
	d.LinkBytes += pkt.WireSize()
	d.Links++
	up := f.uplink(src)
	f.refAdmit(st, up, refEvent{tier: up.ToTier, id: up.To, pkt: pkt})
	for st.n = 0; st.head < len(st.queue) || len(st.held) > 0; st.n++ {
		if st.n >= maxEvents {
			return nil, st.queue, fmt.Errorf("fabric: forwarding loop detected after %d events", st.n)
		}
		if len(st.held) > 0 {
			kept := st.held[:0]
			for _, h := range st.held {
				if h.due <= st.n {
					st.queue = append(st.queue, h.ev)
				} else {
					kept = append(kept, h)
				}
			}
			st.held = kept
			if st.head >= len(st.queue) {
				continue
			}
		}
		ev := st.queue[st.head]
		st.head++
		if ev.tier == dataplane.LinkHost {
			f.referenceDeliverHost(d, topology.HostID(ev.id), ev.pkt)
			continue
		}
		d.Hops++
		ems, err := f.switchAt(ev.tier, ev.id).ProcessInto(ev.pkt, &st.scratch)
		if err != nil {
			if chaos {
				d.Malformed++
				continue
			}
			return nil, st.queue, err
		}
		for i := range ems {
			em := &ems[i]
			d.LinkBytes += em.Packet.WireSize()
			d.Links++
			l := f.NextHop(ev.tier, ev.id, em)
			if !probe && f.declaredFailed(l.ToTier, l.To) {
				d.Lost++
				f.probe.Lost(l.ToTier, l.To, &em.Packet)
				continue
			}
			f.refAdmit(st, l, refEvent{tier: l.ToTier, id: l.To, pkt: em.Packet})
		}
	}
	f.probe.Sent(dataplane.SendSample{
		VNI: st.vni, Group: st.group,
		Delivered: len(d.Received),
		Lost:      d.Lost + d.Malformed + d.FaultDrops,
		Bytes:     int64(d.LinkBytes),
		Hops:      d.Hops,
		Links:     d.Links, Spurious: d.Spurious, Duplicates: d.Duplicates,
		AtFailed: d.Lost, Malformed: d.Malformed,
	}, start)
	return d, st.queue, nil
}

func (f *Fabric) referenceDeliverHost(d *Delivery, h topology.HostID, pkt dataplane.Packet) {
	inner, tel, ok := f.Hypervisors[h].DeliverFull(pkt)
	if !ok {
		d.Spurious++
		return
	}
	if _, dup := d.Received[h]; dup {
		d.Duplicates++
	}
	d.Received[h] = inner
	if len(tel) > 0 {
		if d.Telemetry == nil {
			d.Telemetry = make(map[topology.HostID][]header.INTRecord)
		}
		d.Telemetry[h] = tel
	}
}

// compactQueueMismatch compares forward's compact queue with the
// reference's whole-packet queue entry by entry: the same device, TTL,
// provenance hint and stream bytes, and — the invariant that lets the
// compact form drop them — every reference packet keeps the sender's
// outer header apart from TTL and the sender's inner frame. It returns
// "" when they agree.
func compactQueueMismatch(got []event, want []refEvent, sent dataplane.Packet) string {
	if len(got) != len(want) {
		return fmt.Sprintf("queue holds %d events, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		switch {
		case g.tier != w.tier || g.id != w.id:
			return fmt.Sprintf("event %d at %v/%d, reference %v/%d", i, g.tier, g.id, w.tier, w.id)
		case g.ttl != w.pkt.Outer.TTL:
			return fmt.Sprintf("event %d TTL %d, reference %d", i, g.ttl, w.pkt.Outer.TTL)
		case g.noINT != w.pkt.NoINT:
			return fmt.Sprintf("event %d NoINT %v, reference %v", i, g.noINT, w.pkt.NoINT)
		case !bytes.Equal(g.elmo, w.pkt.Elmo):
			return fmt.Sprintf("event %d stream %x, reference %x", i, g.elmo, w.pkt.Elmo)
		}
		outer := w.pkt.Outer
		outer.TTL = sent.Outer.TTL
		if outer != sent.Outer || !bytes.Equal(w.pkt.Inner, sent.Inner) {
			return fmt.Sprintf("reference event %d changed more than TTL and stream: %+v", i, w.pkt)
		}
	}
	return ""
}

// sendLog is every instrument a send reports to, in one value: the
// seeded injector whose verdicts it suffers, the observer that sees its
// link crossings and its SendSample, and the recorder of its trace
// events. Two sends with equal logs were the same send to everything
// outside the fabric.
type sendLog struct {
	rng    *rand.Rand // nil: no faults
	links  []string
	sample dataplane.SendSample
	events []trace.Event
}

func (s *sendLog) Active() bool { return true }

func (s *sendLog) ObserveLink(l dataplane.Link, bytes int) {
	s.links = append(s.links, fmt.Sprint(l, bytes))
}

func (s *sendLog) ObserveSend(sample dataplane.SendSample) {
	sample.Nanos = 0
	s.sample = sample
}

func (s *sendLog) Cross(dataplane.Link, uint32, uint32) dataplane.FaultVerdict {
	switch x := s.rng.Intn(100); {
	case x < 3:
		return dataplane.FaultVerdict{Drop: true}
	case x < 8:
		return dataplane.FaultVerdict{Duplicate: true}
	case x < 11:
		return dataplane.FaultVerdict{Corrupt: true}
	case x < 20:
		return dataplane.FaultVerdict{DelaySteps: int32(1 + s.rng.Intn(6))}
	case x < 23:
		return dataplane.FaultVerdict{Duplicate: true, DelaySteps: int32(1 + s.rng.Intn(3))}
	}
	return dataplane.FaultVerdict{}
}

func (s *sendLog) CorruptWire(frame []byte) {
	frame[s.rng.Intn(len(frame))] ^= 1 << s.rng.Intn(8)
}

func (s *sendLog) Enabled(trace.Category) bool { return true }

func (s *sendLog) Record(ev trace.Event) { s.events = append(s.events, ev) }

// loggedSend runs one send through fwd with a fresh log attached; a
// non-zero faultSeed arms the log's injector.
func loggedSend(f *Fabric, fwd func(topology.HostID, dataplane.Packet) (*Delivery, error),
	sender topology.HostID, a dataplane.GroupAddr, inner []byte, faultSeed int64) (*Delivery, error, *sendLog) {
	log := new(sendLog)
	f.SetObserver(log)
	f.SetTracer(log)
	f.SetInjector(nil)
	if faultSeed != 0 {
		log.rng = rand.New(rand.NewSource(faultSeed))
		f.SetInjector(log)
	}
	pkt, err := f.Hypervisors[sender].Encap(a, inner)
	if err != nil {
		return nil, err, log
	}
	d, err := fwd(sender, pkt)
	return d, err, log
}

// hostEventsLast is the one visible difference the change allows: a
// send's host deliver/filter events follow its switch events, each
// class keeping its order.
func hostEventsLast(evs []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(evs))
	for _, ev := range evs {
		if ev.Kind != trace.KindDeliver && ev.Kind != trace.KindFilter {
			out = append(out, ev)
		}
	}
	for _, ev := range evs {
		if ev.Kind == trace.KindDeliver || ev.Kind == trace.KindFilter {
			out = append(out, ev)
		}
	}
	return out
}

// TestForwardMatchesEagerDelivery holds forward — compact events
// rebuilt into one packet slot, host copies delivered after the walk
// into maps made at their final size — to the frozen forward that queued
// whole packets and delivered each copy as the loop reached it. The two
// queues must agree event by event (compactQueueMismatch), and every
// field of the Delivery (INT records carry each hop's TTL, so a wrong
// rebuild shows in Telemetry), the SendSample, the observed link
// crossings and the trace events (host events moved last, nothing else)
// must agree, over
// seeded groups on a healthy fabric, with a failed spine and core behind
// stale and then refreshed sender flows, and under seeded drop +
// duplicate + corrupt + delay verdicts; with and without INT.
func TestForwardMatchesEagerDelivery(t *testing.T) {
	topo := topology.MustNew(topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 4, HostsPerLeaf: 8, CoresPerPlane: 2})
	// What the compared sends exercised: all of it must have occurred for
	// the comparison to mean anything.
	saw := map[string]bool{}
	for _, withINT := range []bool{false, true} {
		cfg := testConfig(2)
		cfg.SpineRuleLimit, cfg.LeafRuleLimit, cfg.SRuleCapacity = 1, 3, 2 // push groups onto s-rules and default rules
		cfg.EnableINT = withINT
		ctrl, f := setup(t, topo, cfg)
		rng := rand.New(rand.NewSource(11))
		type group struct {
			key   controller.GroupKey
			hosts []topology.HostID
		}
		var groups []group
		for g := 0; g < 24; g++ {
			hosts := make([]topology.HostID, 0, 64)
			for _, h := range rng.Perm(topo.NumHosts())[:3+rng.Intn(60)] {
				hosts = append(hosts, topology.HostID(h))
			}
			key := controller.GroupKey{Tenant: uint32(1 + g%3), Group: uint32(g)}
			installGroup(t, ctrl, f, key, hosts)
			groups = append(groups, group{key, hosts})
		}
		compare := func(phase string, faultSeed int64) {
			t.Helper()
			for gi, g := range groups {
				sender := g.hosts[gi%len(g.hosts)]
				inner := []byte(fmt.Sprintf("%s/%d", phase, gi))
				if faultSeed != 0 {
					faultSeed++
				}
				var sent dataplane.Packet
				var wantQueue []refEvent
				want, wantErr, wantLog := loggedSend(f, func(src topology.HostID, pkt dataplane.Packet) (d *Delivery, err error) {
					sent = pkt
					d, wantQueue, err = f.referenceForward(src, pkt)
					return d, err
				}, sender, addr(g.key), inner, faultSeed)
				ps := new(procState)
				got, gotErr, gotLog := loggedSend(f, func(src topology.HostID, pkt dataplane.Packet) (*Delivery, error) {
					return f.forward(ps, src, pkt)
				}, sender, addr(g.key), inner, faultSeed)
				where := fmt.Sprintf("INT=%v, %s, group %d", withINT, phase, gi)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: err = %v, reference %v", where, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if msg := compactQueueMismatch(ps.queue, wantQueue, sent); msg != "" {
					t.Fatalf("%s: %s", where, msg)
				}
				gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
				for i := 0; i < gv.NumField(); i++ {
					if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
						t.Errorf("%s: Delivery.%s = %v, reference %v", where, gv.Type().Field(i).Name, gv.Field(i), wv.Field(i))
					}
				}
				if gotLog.sample != wantLog.sample {
					t.Errorf("%s: SendSample = %+v, reference %+v", where, gotLog.sample, wantLog.sample)
				}
				if !reflect.DeepEqual(gotLog.links, wantLog.links) {
					t.Errorf("%s: observed link crossings differ:\n%v\nreference\n%v", where, gotLog.links, wantLog.links)
				}
				if !reflect.DeepEqual(gotLog.events, hostEventsLast(wantLog.events)) {
					t.Errorf("%s: trace events are not the reference's with host events last:\n%v\nreference\n%v", where, gotLog.events, wantLog.events)
				}
				if t.Failed() {
					t.FailNow()
				}
				for what, seen := range map[string]bool{
					"spurious":          got.Spurious > 0,
					"duplicates":        got.Duplicates > 0,
					"lost":              got.Lost > 0,
					"telemetry":         len(got.Telemetry) > 0,
					"nothing received":  len(got.Received) == 0,
					"over 16 received":  len(got.Received) > 16,
					"fault drop":        got.FaultDrops > 0,
					"fault dup":         got.FaultDups > 0,
					"fault corrupt":     got.FaultCorrupts > 0,
					"fault delay":       got.FaultDelays > 0,
					"malformed":         got.Malformed > 0,
					"host events moved": !reflect.DeepEqual(wantLog.events, gotLog.events),
				} {
					saw[what] = saw[what] || seen
				}
			}
		}
		compare("healthy", 0)
		compare("healthy under faults", 100)
		ctrl.FailSpine(1)
		ctrl.FailCore(2)
		compare("failed spine and core, stale flows", 0)
		for _, g := range groups {
			if _, err := f.InstallGroupAt(0, ctrl, g.key); err != nil {
				t.Fatal(err)
			}
		}
		compare("failed spine and core, refreshed flows", 0)
		compare("failed spine and core under faults", 200)
	}
	if len(saw) == 0 {
		t.Fatal("every send failed: nothing was compared")
	}
	for what, seen := range saw {
		if !seen {
			t.Errorf("no send exercised: %s", what)
		}
	}
}

// TestForwardEventIsCompact pins what a copy in flight costs the sync
// forwarder: an event is at most 32 bytes with one pointer word, and
// carries neither the outer header nor the inner frame, which are the
// send's and live once in fwd.
func TestForwardEventIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Errorf("event is %d bytes, want at most 32", n)
	}
	typ := reflect.TypeOf(event{})
	pointers := 0
	for i := 0; i < typ.NumField(); i++ {
		fld := typ.Field(i)
		switch fld.Type {
		case reflect.TypeOf(dataplane.Packet{}), reflect.TypeOf(header.OuterFields{}):
			t.Errorf("event.%s holds a %s", fld.Name, fld.Type)
		}
		switch fld.Type.Kind() {
		case reflect.Slice, reflect.Pointer, reflect.String, reflect.Map, reflect.Interface, reflect.Struct, reflect.Array:
			pointers++
		}
	}
	if pointers > 1 {
		t.Errorf("event has %d fields that are or may hold pointers, want one (the stream)", pointers)
	}
}

// TestSendAllocsIndependentOfGroupSize is the exact gate on a warm send:
// the fabric owns the Delivery, its maps and the walk's working memory,
// and clears them per send, so a send allocates nothing whether it
// reaches 4 hosts or 399 (before, Received was made per send and every
// send paid for it).
func TestSendAllocsIndependentOfGroupSize(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	topo := topology.MustNew(topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4})
	cfg := testConfig(0)
	cfg.LeafRuleLimit, cfg.SRuleCapacity = 30, 1000
	ctrl, f := setup(t, topo, cfg)
	rng := rand.New(rand.NewSource(5))
	allocs := map[int]float64{}
	sizes := []int{5, 20, 100, 400}
	for g, size := range sizes {
		hosts := make([]topology.HostID, 0, size)
		for _, h := range rng.Perm(topo.NumHosts())[:size] {
			hosts = append(hosts, topology.HostID(h))
		}
		key := controller.GroupKey{Tenant: 1, Group: uint32(g)}
		installGroup(t, ctrl, f, key, hosts)
		inner := []byte("alloc probe")
		allocs[size] = testing.AllocsPerRun(100, func() {
			d, err := f.Send(hosts[0], addr(key), inner)
			if err != nil || len(d.Received) != size-1 {
				t.Fatalf("size %d: %v, err %v", size, d, err)
			}
		})
	}
	t.Logf("allocations per send by group size: %v", allocs)
	for _, size := range sizes {
		if allocs[size] != 0 {
			t.Errorf("a warm send allocates: %v", allocs)
			break
		}
	}
}

// TestSendAllocsZeroDegraded holds the slow paths to the same bar: with
// INT on, s-rules and default p-rules in use and a spine and a core
// declared failed, a warm send still allocates nothing — the INT records
// of every copy land in the fabric's one record buffer.
func TestSendAllocsZeroDegraded(t *testing.T) {
	raceflag.SkipExactAllocs(t)
	topo := topology.MustNew(topology.Config{Pods: 8, SpinesPerPod: 4, LeavesPerPod: 16, HostsPerLeaf: 16, CoresPerPlane: 4})
	cfg := controller.PaperConfig(4)
	cfg.LeafRuleLimit, cfg.SRuleCapacity, cfg.EnableINT = 4, 2, true
	ctrl, f := setup(t, topo, cfg)
	ctrl.FailSpine(0)
	ctrl.FailCore(1)
	rng := rand.New(rand.NewSource(7))
	type group struct {
		key    controller.GroupKey
		sender topology.HostID
		size   int
	}
	var groups []group
	for g := 0; g < 16; g++ {
		size := 20 + rng.Intn(100)
		hosts := make([]topology.HostID, 0, size)
		for _, h := range rng.Perm(topo.NumHosts())[:size] {
			hosts = append(hosts, topology.HostID(h))
		}
		key := controller.GroupKey{Tenant: 1, Group: uint32(g)}
		installGroup(t, ctrl, f, key, hosts)
		groups = append(groups, group{key, hosts[0], size})
	}
	inner := []byte("alloc probe")
	sendAll := func() {
		for _, g := range groups {
			d, err := f.Send(g.sender, addr(g.key), inner)
			if err != nil || len(d.Received) != g.size-1 || len(d.Telemetry) != len(d.Received) {
				t.Fatalf("group %d: %v, err %v", g.key.Group, d, err)
			}
		}
	}
	sendAll()
	var sRules, defaults int
	for _, sw := range append(append([]*dataplane.NetworkSwitch{}, f.Leaves...), f.Spines...) {
		sRules += sw.Stats().SRuleHits
		defaults += sw.Stats().Defaults
	}
	if sRules == 0 || defaults == 0 {
		t.Fatalf("sends took %d s-rule and %d default p-rule hits, want both", sRules, defaults)
	}
	allocs := testing.AllocsPerRun(20, sendAll)
	t.Logf("allocations per %d degraded sends: %v", len(groups), allocs)
	if allocs != 0 {
		t.Errorf("a warm degraded send allocates: %v per %d sends", allocs, len(groups))
	}
}

// TestDeliveryReusedAcrossSends pins the ownership rule from the
// caller's side: sends back to back on one fabric — two groups with
// different members, then a group whose copies carry INT and one whose
// copies do not, then a send that loses copies at a failed spine and a
// healthy one after it — each return the fabric's one Delivery holding
// exactly what the same send into fresh state holds: its own Received
// keys, every counter reset, and Telemetry nil when no copy carried INT.
func TestDeliveryReusedAcrossSends(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	// Default p-rules everywhere, so sends deliver spurious copies.
	cfg.LeafRuleLimit, cfg.SpineRuleLimit, cfg.SRuleCapacity = 0, 0, 0
	ctrl, f := setup(t, topo, cfg)
	groups := [][]topology.HostID{
		figure3Hosts(),
		{2, 17, 33, 50, 51},
		{3, 9, 40, 58},
		{4, 24, 44},
	}
	for g, hosts := range groups {
		installGroup(t, ctrl, f, controller.GroupKey{Tenant: 1, Group: uint32(g)}, hosts)
	}
	// Group 2's first two members stamp INT: their flows are the
	// controller's headers with the telemetry section added.
	l := header.LayoutFor(topo)
	for _, sender := range groups[2][:2] {
		stream, err := controller.AppendSenderStream(nil, new(controller.SenderScratch), topo, cfg, ctrl.Group(controller.GroupKey{Tenant: 1, Group: 2}).Enc, sender, ctrl.Failures())
		if err != nil {
			t.Fatal(err)
		}
		hdr, _, err := header.Decode(l, stream)
		if err != nil {
			t.Fatal(err)
		}
		hdr.INTEnabled = true
		if err := installHeader(f, 0, sender, dataplane.GroupAddr{VNI: 1, Group: 2}, hdr); err != nil {
			t.Fatal(err)
		}
	}

	var owned *Delivery
	send := func(g, from int, healthy bool) *Delivery {
		t.Helper()
		sender, a, inner := groups[g][from], dataplane.GroupAddr{VNI: 1, Group: uint32(g)}, []byte{byte(g)}
		pkt, err := f.Hypervisors[sender].Encap(a, inner)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.forward(new(procState), sender, pkt)
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.Send(sender, a, inner)
		if err != nil {
			t.Fatal(err)
		}
		if owned == nil {
			owned = d
		} else if d != owned {
			t.Fatalf("group %d: Send returned a new Delivery, not the fabric's own", g)
		}
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("group %d: reused Delivery %+v, fresh state %+v", g, *d, *want)
		}
		if healthy {
			if len(d.Received) != len(groups[g])-1 {
				t.Fatalf("group %d: received %d copies, want %d", g, len(d.Received), len(groups[g])-1)
			}
			for _, h := range groups[g] {
				if h != sender && !bytes.Equal(d.Received[h], inner) {
					t.Fatalf("group %d: host %d received %q", g, h, d.Received[h])
				}
			}
		}
		return d
	}
	if d := send(0, 0, true); d.Spurious == 0 || d.Hops == 0 || d.Links == 0 || d.LinkBytes == 0 {
		t.Fatalf("group 0 exercised nothing to reset: %+v", *d)
	}
	send(1, 0, true)
	// Two INT sends from different members: the second must not keep the
	// first's path for the host that sends it.
	for from := 0; from < 2; from++ {
		if d := send(2, from, true); len(d.Telemetry) != len(d.Received) {
			t.Fatalf("INT send: telemetry for %d of %d receivers", len(d.Telemetry), len(d.Received))
		}
	}
	if d := send(3, 0, true); d.Telemetry != nil {
		t.Fatalf("non-INT send after an INT send: telemetry %v", d.Telemetry)
	}
	// With every spine of host 40's pod declared failed, group 0's copies
	// to that pod die on the way down.
	first, end := topo.PodSpines(topo.HostPod(40))
	for s := first; s < end; s++ {
		ctrl.FailSpine(s)
	}
	if d := send(0, 0, false); d.Lost == 0 {
		t.Fatalf("failed pod lost nothing: %+v", *d)
	}
	for s := first; s < end; s++ {
		ctrl.RepairSpine(s)
	}
	send(1, 0, true)
}
