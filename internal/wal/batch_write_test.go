package wal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// countingWriter is the segment-writer seam of this test: it counts the
// writes a log issues, and parks the first of them on gate so the test
// decides which records queue up into the next batch.
type countingWriter struct {
	w       io.Writer
	writes  *atomic.Int64
	entered chan<- struct{}
	gate    <-chan struct{}
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 && c.gate != nil {
		c.entered <- struct{}{}
		<-c.gate
	}
	return c.w.Write(p)
}

func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(segs))
	for _, s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			t.Fatal(err)
		}
		files[s.name] = data
	}
	return files
}

// TestBatchIsOneWritePerSegment writes the same ten records through
// batches of one and through one batch of nine behind a batch of one,
// with segments small enough that two rotations fall inside the large
// batch. The segment files are byte-identical — same frames, CRCs, LSNs
// and rotation points — and the batched log issued one write per batch
// per segment it touched, not two per record.
func TestBatchIsOneWritePerSegment(t *testing.T) {
	const records = 10
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 100) // a 125-byte frame
	}
	const segmentBytes = 400 // full after four frames

	var single atomic.Int64
	oneDir := t.TempDir()
	one := openTest(t, oneDir, Options{SegmentBytes: segmentBytes, BatchRecords: 1,
		wrapWriter: func(w io.Writer) io.Writer { return &countingWriter{w: w, writes: &single} }})
	for i := 0; i < records; i++ {
		if _, err := one.AppendSync(uint8(1+i%3), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}

	var batched atomic.Int64
	entered, gate := make(chan struct{}), make(chan struct{})
	manyDir := t.TempDir()
	many := openTest(t, manyDir, Options{SegmentBytes: segmentBytes,
		wrapWriter: func(w io.Writer) io.Writer {
			return &countingWriter{w: w, writes: &batched, entered: entered, gate: gate}
		}})
	acks := make([]*Ack, records)
	for i := range acks {
		var err error
		if acks[i], err = many.Append(uint8(1+i%3), payload(i)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered // the flusher is inside record 0's write: the rest queue up
		}
	}
	close(gate)
	for _, a := range acks {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := many.Close(); err != nil {
		t.Fatal(err)
	}

	want, got := segmentFiles(t, oneDir), segmentFiles(t, manyDir)
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("%d segments one by one, %d batched, want 3 and 3", len(want), len(got))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("segment %s differs between one-record and many-record batches", name)
		}
	}
	if n := single.Load(); n != records {
		t.Fatalf("%d batches of one record took %d writes", records, n)
	}
	// Batch {0} → segment 1; batch {1..9} → segments 1 (1-3), 2 (4-7), 3 (8-9).
	if n := batched.Load(); n != 4 {
		t.Fatalf("a batch of one and a batch of nine over three segments took %d writes, want 4", n)
	}
	recs := collect(t, manyDir, 1)
	if len(recs) != records {
		t.Fatalf("replayed %d of %d records", len(recs), records)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || !bytes.Equal(r.Data, payload(i)) {
			t.Fatalf("record %d replayed as LSN %d with %d bytes", i, r.LSN, len(r.Data))
		}
	}
}
