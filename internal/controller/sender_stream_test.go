package controller

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elmo/internal/bitmap"
	"elmo/internal/header"
	"elmo/internal/topology"
)

// sameErr holds two errors to the same value: the same sentinel, or
// (for the formatted ones) the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	for _, sentinel := range []error{ErrNoPath, ErrLegacyPath} {
		if a == sentinel || b == sentinel {
			return a == b
		}
	}
	return a.Error() == b.Error()
}

func sameUpstream(a, b *header.UpstreamRule) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Multipath == b.Multipath && a.Down.Equal(b.Down) && a.Up.Equal(b.Up)
}

func sameBitmapPtr(a, b *bitmap.Bitmap) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(*b)
}

// sameRules compares two downstream sections; nil and empty are one.
func sameRules(a, b []header.PRule) bool {
	return slices.EqualFunc(a, b, func(x, y header.PRule) bool {
		return slices.Equal(x.Switches, y.Switches) && x.Bitmap.Equal(y.Bitmap)
	})
}

// diffHeader names the first section in which two headers differ.
func diffHeader(a, b *header.Header) string {
	switch {
	case !sameUpstream(a.ULeaf, b.ULeaf):
		return "u-leaf"
	case !sameUpstream(a.USpine, b.USpine):
		return "u-spine"
	case !sameBitmapPtr(a.Core, b.Core):
		return "core"
	case !sameRules(a.DSpine, b.DSpine) || !sameBitmapPtr(a.DSpineDefault, b.DSpineDefault):
		return "d-spine"
	case !sameRules(a.DLeaf, b.DLeaf) || !sameBitmapPtr(a.DLeafDefault, b.DLeafDefault):
		return "d-leaf"
	case a.INTEnabled != b.INTEnabled || !slices.Equal(a.INT, b.INT):
		return "INT"
	}
	return ""
}

// TestSenderStreamMatchesOracle holds AppendSenderStream to the frozen
// header assembly it replaced, on seeded groups over every shape the
// specialisation branches on: R, INT, rule limits of 1, refused and
// granted s-rule capacity, legacy leaves and pods, failed spines and
// cores (the partitioned ErrNoPath cases included) and a budget no
// cross-rack header fits. The stream equals header.Encode of the oracle
// header byte for byte, a refusal is the same error value, and Decode of
// the stream is the oracle header section by section.
func TestSenderStreamMatchesOracle(t *testing.T) {
	topo := topology.MustNew(topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 3, HostsPerLeaf: 8, CoresPerPlane: 2})
	tc := topo.Config()
	l := header.LayoutFor(topo)
	grant := CapacityFunc{
		Leaf: func(topology.LeafID) bool { return true },
		Pod:  func(topology.PodID) bool { return true },
	}
	failureSets := []struct {
		name string
		fail func(*topology.FailureSet)
	}{
		{"healthy", func(*topology.FailureSet) {}},
		{"one-spine", func(f *topology.FailureSet) { f.FailSpine(topo.SpineAt(0, 0)) }},
		{"cross-planes", func(f *topology.FailureSet) { f.FailSpine(topo.SpineAt(2, 0)); f.FailSpine(topo.SpineAt(3, 1)) }},
		{"plane-cores", func(f *topology.FailureSet) { f.FailCore(0); f.FailCore(1) }},
		{"one-core", func(f *topology.FailureSet) { f.FailCore(2) }},
		{"pod-cut-off", func(f *topology.FailureSet) { f.FailSpine(topo.SpineAt(1, 0)); f.FailSpine(topo.SpineAt(1, 1)) }},
		{"all-cores", func(f *topology.FailureSet) { f.FailCore(0); f.FailCore(1); f.FailCore(2); f.FailCore(3) }},
	}

	var scratch SenderScratch // one scratch throughout: no bit may leak from one sender to the next
	streams, noPath, legacyPath, overBudget := 0, 0, 0, 0
	check := func(where string, cfg Config, enc *Encoding, receivers []topology.HostID, sender topology.HostID, failures *topology.FailureSet) {
		var want []byte
		hdr, wantErr := oracleSenderHeader(topo, cfg, withTreeMaps(topo, enc, receivers), sender, failures)
		if wantErr == nil {
			want, wantErr = header.Encode(l, hdr)
		}
		prefix := []byte{0xAA, 0xBB}
		members := receiving(receivers)
		var tree Tree
		tree.Read(topo, members)
		got, err := AppendSenderStream(prefix, &scratch, topo, cfg, enc, &tree, sender, failures)
		if !sameErr(err, wantErr) {
			t.Fatalf("%s: error %v, oracle %v", where, err, wantErr)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%s: dst prefix overwritten", where)
		}
		got = got[len(prefix):]
		switch {
		case err == ErrNoPath:
			noPath++
		case err == ErrLegacyPath:
			legacyPath++
		case err != nil:
			overBudget++
		}
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("%s: refused, yet %d bytes appended", where, len(got))
			}
			return
		}
		streams++
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\nstream %x\noracle %x", where, got, want)
		}
		dec, n, err := header.Decode(l, got)
		if err != nil || n != len(got) {
			t.Fatalf("%s: Decode consumed %d of %d: %v", where, n, len(got), err)
		}
		if sec := diffHeader(dec, hdr); sec != "" {
			t.Fatalf("%s: decoded stream differs from the oracle header in its %s section", where, sec)
		}
		view, err := SenderHeader(topo, cfg, enc, members, sender, failures)
		if err != nil || diffHeader(view, hdr) != "" {
			t.Fatalf("%s: SenderHeader is not the decoded stream: %v", where, err)
		}
	}

	// variant bits: R=4, INT, rule limits of 1, s-rule capacity granted,
	// legacy switches (which need the capacity: they must take s-rules).
	for v := 0; v < 1<<5; v++ {
		r4, intOn, limit1, granted, legacy := v&1 != 0, v&2 != 0, v&4 != 0, v&8 != 0, v&16 != 0
		if legacy && !granted {
			continue
		}
		cfg := testConfig(0)
		if r4 {
			cfg.R = 4
		}
		cfg.EnableINT = intOn
		if limit1 {
			cfg.LeafRuleLimit, cfg.SpineRuleLimit = 1, 1
		}
		capacity := NoCapacity()
		if granted {
			capacity = grant
		}
		if legacy {
			cfg.LegacyLeaves = []topology.LeafID{1, 7}
			cfg.LegacyPods = []topology.PodID{3}
		}
		tight := cfg
		tight.MaxHeaderBytes = 12 // fits a one-rack header and nothing wider
		rng := rand.New(rand.NewSource(int64(1900 + v)))
		for g := 0; g < 16; g++ {
			var receivers []topology.HostID
			for _, h := range rng.Perm(topo.NumHosts())[:1+rng.Intn(24)] {
				receivers = append(receivers, topology.HostID(h))
			}
			if g%3 == 0 { // fold the group into one rack, or into one pod
				span := []int{tc.HostsPerLeaf, tc.HostsPerLeaf * tc.LeavesPerPod}[g/3%2]
				for i := range receivers {
					receivers[i] %= topology.HostID(span)
				}
				slices.Sort(receivers)
				receivers = slices.Compact(receivers)
			}
			enc, err := ComputeEncoding(topo, cfg, capacity, receivers)
			if err != nil {
				t.Fatalf("variant %#x group %d: %v", v, g, err)
			}
			senders := slices.Clone(receivers[:min(4, len(receivers))])
			for i := 0; i < 3; i++ {
				senders = append(senders, topology.HostID(rng.Intn(topo.NumHosts())))
			}
			for _, fs := range failureSets {
				failures := topology.NewFailureSet()
				fs.fail(failures)
				for _, sender := range senders {
					where := fmt.Sprintf("variant %#x (R4 INT limit1 granted legacy) %s group %d sender %d", v, fs.name, g, sender)
					check(where, cfg, enc.Encoding, receivers, sender, failures)
					check(where+" tight budget", tight, enc.Encoding, receivers, sender, failures)
				}
			}
		}
	}
	t.Logf("%d streams equal; refused: %d no path, %d legacy path, %d over budget", streams, noPath, legacyPath, overBudget)
	if streams < 10000 || noPath == 0 || legacyPath == 0 || overBudget == 0 {
		t.Fatal("a case the specialisation branches on was never drawn")
	}
}

// TestAppendSenderStreamZeroAllocs: on a healthy fabric, with a warm
// scratch and room in dst, specialising the shared encoding for a
// sender allocates nothing — whatever the sender's place in the tree.
func TestAppendSenderStreamZeroAllocs(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.EnableINT = true
	enc, err := ComputeEncoding(topo, cfg, NoCapacity(), figure3Receivers())
	if err != nil {
		t.Fatal(err)
	}
	failures := topology.NewFailureSet()
	var scratch SenderScratch
	buf := make([]byte, 0, cfg.MaxHeaderBytes)
	var tree Tree
	tree.Read(topo, receiving(figure3Receivers()))
	senders := []topology.HostID{0, 8, 20, 63} // member leaf, same pod, memberless pod, lone member of a leaf
	for _, s := range senders {
		if _, err := AppendSenderStream(buf, &scratch, topo, cfg, enc.Encoding, &tree, s, failures); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range senders {
			if _, err := AppendSenderStream(buf, &scratch, topo, cfg, enc.Encoding, &tree, s, failures); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm AppendSenderStream allocated %.1f per %d senders, want 0", allocs, len(senders))
	}
}

// fanoutStreams returns the sender streams of n bench-shaped groups as
// the fanout workloads carry them: the benchmark's fabric, PaperConfig(0)
// with INT on, and each group's first host as its sender.
func fanoutStreams(t testing.TB, n int) (header.Layout, [][]byte) {
	topo, sets := benchReceiverSets(t, n)
	cfg := PaperConfig(0)
	cfg.EnableINT = true
	failures := topology.NewFailureSet()
	var s SenderScratch
	var tree Tree
	streams := make([][]byte, len(sets))
	for i, hosts := range sets {
		enc, err := ComputeEncoding(topo, cfg, NoCapacity(), hosts)
		if err != nil {
			t.Fatal(err)
		}
		tree.Read(topo, receiving(hosts))
		if streams[i], err = AppendSenderStream(nil, &s, topo, cfg, enc.Encoding, &tree, hosts[0], failures); err != nil {
			t.Fatal(err)
		}
	}
	return header.LayoutFor(topo), streams
}

// TestStreamInfoZeroAllocs: the structural walk that Seek and Unmarshal
// run per hop allocates nothing over the sections the encoder writes.
func TestStreamInfoZeroAllocs(t *testing.T) {
	l, streams := fanoutStreams(t, 256)
	allocs := testing.AllocsPerRun(20, func() {
		for _, s := range streams {
			if n, _, err := header.StreamInfo(l, s); err != nil || n != len(s) {
				t.Fatalf("StreamInfo = %d, %v over a %d-byte stream", n, err, len(s))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("StreamInfo allocated %.1f per %d streams, want 0", allocs, len(streams))
	}
}

// BenchmarkStreamInfo walks the sender streams of bench-shaped groups
// one per op, as a hop's Seek or Unmarshal walks them.
func BenchmarkStreamInfo(b *testing.B) {
	l, streams := fanoutStreams(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := header.StreamInfo(l, streams[i%len(streams)]); err != nil {
			b.Fatal(err)
		}
	}
}
