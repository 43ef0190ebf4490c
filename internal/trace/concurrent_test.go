package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
)

// checkedEvent encodes a writer id and per-writer index into one hop
// event, with a checksum spread across independent fields. A torn event
// (fields from two different writes) fails the checksum; a lost event
// leaves a hole in the per-writer index coverage.
func checkedEvent(writer, i int) Event {
	vni := uint32(writer)<<16 | uint32(i)
	return Event{
		Cat: CatHop, Kind: KindHop, Tier: TierLeaf,
		Switch: int32(writer),
		VNI:    vni,
		Group:  vni ^ 0xdeadbeef,
		Arg:    int64(writer)<<32 | int64(i),
	}
}

func verifyChecked(ev Event) (writer, index int, ok bool) {
	writer = int(ev.Switch)
	index = int(ev.VNI & 0xffff)
	ok = ev.VNI == uint32(writer)<<16|uint32(index) &&
		ev.Group == ev.VNI^0xdeadbeef &&
		ev.Arg == int64(writer)<<32|int64(index)
	return writer, index, ok
}

// TestConcurrentWritersNoLostOrTornEvents hammers the ring from many
// goroutines with the capacity sized to hold everything: afterwards
// every (writer, index) pair must be present exactly once with
// self-consistent fields — the ring under contention neither drops nor
// tears an event.
func TestConcurrentWritersNoLostOrTornEvents(t *testing.T) {
	const writers, perWriter = 8, 512
	r := New(Config{Capacity: writers * perWriter})
	r.Enable()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(checkedEvent(w, i))
			}
		}(w)
	}
	wg.Wait()

	evs := r.Snapshot()
	if len(evs) != writers*perWriter {
		t.Fatalf("ring held %d events, want %d", len(evs), writers*perWriter)
	}
	seen := make([][]bool, writers)
	for w := range seen {
		seen[w] = make([]bool, perWriter)
	}
	lastPerWriter := make([]int, writers)
	for w := range lastPerWriter {
		lastPerWriter[w] = -1
	}
	for i, ev := range evs {
		if i > 0 && ev.Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot Seq not dense at %d: %d after %d", i, ev.Seq, evs[i-1].Seq)
		}
		w, idx, ok := verifyChecked(ev)
		if !ok {
			t.Fatalf("torn event: VNI=%#x Group=%#x Arg=%#x", ev.VNI, ev.Group, ev.Arg)
		}
		if seen[w][idx] {
			t.Fatalf("duplicate event writer %d index %d", w, idx)
		}
		seen[w][idx] = true
		// One writer's events must appear in its program order.
		if idx <= lastPerWriter[w] {
			t.Fatalf("writer %d order inverted: index %d after %d", w, idx, lastPerWriter[w])
		}
		lastPerWriter[w] = idx
	}
	for w := range seen {
		for idx, ok := range seen[w] {
			if !ok {
				t.Fatalf("lost event: writer %d index %d missing", w, idx)
			}
		}
	}
}

// TestConcurrentSnapshotAndChromeExport runs writers, snapshot readers,
// and Chrome exporters simultaneously (the -race target): every
// mid-flight snapshot must be internally consistent — dense Seq, no
// torn fields — and every export valid JSON.
func TestConcurrentSnapshotAndChromeExport(t *testing.T) {
	const writers, perWriter, readers = 4, 2000, 3
	r := New(Config{Capacity: 256}) // small ring: force wraparound under load
	r.Enable()
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(checkedEvent(w, i))
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := r.Snapshot()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Errorf("mid-flight snapshot Seq gap: %d after %d", evs[i].Seq, evs[i-1].Seq)
						return
					}
					if _, _, ok := verifyChecked(evs[i]); !ok {
						t.Errorf("torn event in mid-flight snapshot: VNI=%#x Group=%#x Arg=%#x",
							evs[i].VNI, evs[i].Group, evs[i].Arg)
						return
					}
				}
				if err := WriteChrome(io.Discard, evs); err != nil {
					t.Errorf("WriteChrome during writes: %v", err)
					return
				}
			}
		}()
	}

	// Writers finish first; then release the readers.
	writing.Wait()
	close(stop)
	reading.Wait()

	// Final export parses as one JSON array of trace_event objects.
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("final Chrome export is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range decoded.TraceEvents {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != 256 {
		t.Fatalf("final export carries %d complete events, want full ring of 256", complete)
	}
}
