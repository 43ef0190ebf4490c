package main

import (
	"errors"
	"testing"
)

func deliveryTo(frame []byte, hosts ...HostID) *Delivery {
	d := &Delivery{Received: make(map[HostID][]byte)}
	for _, h := range hosts {
		d.Received[h] = frame
	}
	return d
}

// TestSendOracleCountsEveryWrongDelivery feeds missing, extra, duplicate,
// lost and damaged deliveries and checks each lands in failed_ratio.
func TestSendOracleCountsEveryWrongDelivery(t *testing.T) {
	receivers := []HostID{1, 2, 3, 4}
	const sender = HostID(1)
	frame := frameTemplate
	damaged := append([]byte(nil), frame...)
	damaged[10] ^= 0xff

	cases := []struct {
		name string
		d    *Delivery
		ok   bool
	}{
		{"exact member set minus the sender", deliveryTo(frame, 2, 3, 4), true},
		{"missing member", deliveryTo(frame, 2, 4), false},
		{"extra non-member", deliveryTo(frame, 2, 3, 4, 9), false},
		{"sender got its own copy", deliveryTo(frame, 1, 2, 3, 4), false},
		{"right count, wrong host", deliveryTo(frame, 2, 3, 9), false},
		{"duplicate", func() *Delivery { d := deliveryTo(frame, 2, 3, 4); d.Duplicates = 1; return d }(), false},
		{"lost copy", func() *Delivery { d := deliveryTo(frame, 2, 3, 4); d.Lost = 1; return d }(), false},
		{"damaged frame", func() *Delivery { d := deliveryTo(frame, 2, 3); d.Received[4] = damaged; return d }(), false},
	}
	var tl tally
	wantFailed := 0
	for _, c := range cases {
		err := checkSend(c.d, receivers, sender, frame)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkSend = %v, want ok=%t", c.name, err, c.ok)
		}
		tl.check(err)
		if !c.ok {
			wantFailed++
		}
	}
	if tl.attempted != len(cases) || tl.failed != wantFailed {
		t.Fatalf("tally = %d failed of %d, want %d of %d", tl.failed, tl.attempted, wantFailed, len(cases))
	}
	if got, want := tl.failedRatio(), float64(wantFailed)/float64(len(cases)); got != want {
		t.Fatalf("failed_ratio = %g, want %g", got, want)
	}
	if tl.first == nil {
		t.Fatal("the first failure was not kept")
	}
}

func hostPacket(key GroupKey, seq uint64) HostPacket {
	var p HostPacket
	p.Addr.VNI, p.Addr.Group = key.Tenant, key.Group
	p.Inner = seqFrame(frameTemplate, seq)
	return p
}

func TestWindowOracle(t *testing.T) {
	a, b := GroupKey{Tenant: 1, Group: 7}, GroupKey{Tenant: 2, Group: 9}
	sends := []udpSend{
		{Seq: 100, Key: a, Receivers: []HostID{1, 2}},
		{Seq: 101, Key: b, Receivers: []HostID{2, 3}},
	}
	complete := func() map[HostID][]HostPacket {
		return map[HostID][]HostPacket{
			1: {hostPacket(a, 100)},
			2: {hostPacket(a, 100), hostPacket(b, 101)},
			3: {hostPacket(b, 101)},
		}
	}
	damaged := hostPacket(b, 101)
	damaged.Inner[20] ^= 1

	cases := []struct {
		name   string
		mutate func(got map[HostID][]HostPacket)
		failed int
	}{
		{"every copy arrived once", func(map[HostID][]HostPacket) {}, 0},
		{"missing copy", func(g map[HostID][]HostPacket) { g[3] = nil }, 1},
		{"duplicate copy", func(g map[HostID][]HostPacket) { g[1] = append(g[1], hostPacket(a, 100)) }, 1},
		{"copy at a non-member", func(g map[HostID][]HostPacket) { g[9] = []HostPacket{hostPacket(a, 100)} }, 1},
		{"late frame of an earlier window", func(g map[HostID][]HostPacket) { g[1] = append(g[1], hostPacket(a, 42)) }, 1},
		{"wrong group on the frame", func(g map[HostID][]HostPacket) { g[3] = []HostPacket{hostPacket(a, 101)} }, 1},
		{"damaged frame", func(g map[HostID][]HostPacket) { g[3] = []HostPacket{damaged} }, 1},
		{"nothing arrived", func(g map[HostID][]HostPacket) { clear(g) }, 2},
	}
	for _, c := range cases {
		got := complete()
		c.mutate(got)
		if failed := checkWindow(sends, got, frameTemplate); failed != c.failed {
			t.Errorf("%s: %d sends failed, want %d", c.name, failed, c.failed)
		}
	}
}

func TestRecoveryOracle(t *testing.T) {
	if err := checkRecovery("abc", "abc", 10, 10); err != nil {
		t.Fatalf("identical state rejected: %v", err)
	}
	if checkRecovery("abc", "abd", 10, 10) == nil {
		t.Fatal("a different fingerprint passed")
	}
	if checkRecovery("abc", "abc", 10, 9) == nil {
		t.Fatal("a lost group passed")
	}
}

func TestTallyMerge(t *testing.T) {
	var a, b tally
	a.check(nil)
	b.check(errors.New("boom"))
	b.check(nil)
	a.merge(b)
	if a.attempted != 3 || a.failed != 1 || a.first == nil {
		t.Fatalf("merged tally = %+v", a)
	}
}
