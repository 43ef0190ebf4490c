package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// Ack is one caller's handle on an in-flight append. Wait blocks until
// the record's batch has been fsynced (or failed).
type Ack struct {
	lsn     uint64
	epoch   uint64
	typ     uint8
	data    []byte
	barrier bool

	enqueued time.Time

	err  error
	done chan struct{}
}

func newAck(typ uint8, data []byte) *Ack {
	return &Ack{typ: typ, data: data, enqueued: time.Now(), done: make(chan struct{})}
}

// LSN returns the record's log sequence number (assigned at Append).
func (a *Ack) LSN() uint64 { return a.lsn }

// Wait blocks until the record is durable and returns the batch's
// write/sync error, if any.
func (a *Ack) Wait() error {
	<-a.done
	return a.err
}

// flusher is the single goroutine that owns the segment files: it
// blocks for the first pending record, opportunistically drains
// everything else already queued (up to the batch bounds), writes the
// whole batch, fsyncs once, and releases every Ack with its timings.
func (l *Log) flusher() {
	defer close(l.done)
	batch := make([]*Ack, 0, l.opts.BatchRecords)
	for {
		a, ok := <-l.queue
		if !ok {
			return
		}
		batch = append(batch[:0], a)
		bytes := frameHeader + 1 + len(a.data)
	drain:
		for len(batch) < l.opts.BatchRecords && bytes < batchBytes {
			select {
			case b, ok := <-l.queue:
				if !ok {
					break drain
				}
				batch = append(batch, b)
				bytes += frameHeader + 1 + len(b.data)
			default:
				break drain
			}
		}
		l.commitBatch(batch)
	}
}

// commitBatch writes and syncs one batch, then releases its Acks. The
// batch's frames are gathered in l.frames and handed to the segment in
// one write — one per segment when a rotation falls inside the batch —
// so a batch costs one syscall before its fsync, not two per record.
func (l *Log) commitBatch(batch []*Ack) {
	start := time.Now()
	err := l.flushErr
	records := 0
	if err == nil {
		for _, a := range batch {
			if a.barrier {
				continue
			}
			if l.cur == nil || (l.curSize > 0 && l.curSize >= int64(l.opts.SegmentBytes)) {
				// The frames gathered so far belong to the segment
				// this record is too late for.
				if err = l.writeFrames(); err == nil {
					err = l.rotate(a.lsn)
				}
				if err != nil {
					break
				}
			}
			l.appendFrame(a)
			records++
		}
		if err == nil {
			err = l.writeFrames()
		}
	}
	if err == nil && records > 0 {
		err = l.syncFile()
	}
	if err != nil {
		// A write/sync failure poisons the log: later batches would
		// otherwise silently skip the hole.
		l.flushErr = err
	}
	end := time.Now()
	m := l.opts.Metrics
	for _, a := range batch {
		a.err = err
		close(a.done)
		// Where the time went: queued behind the previous batch, written
		// and synced with its own, and enqueue to durable in total.
		if !a.barrier {
			m.queueLat.Observe(start.Sub(a.enqueued).Seconds())
			m.flushLat.Observe(end.Sub(start).Seconds())
			m.commitLat.Observe(end.Sub(a.enqueued).Seconds())
		}
	}
	if records > 0 {
		m.batches.Inc()
		m.batchRecords.Observe(float64(records))
	}
}

// appendFrame frames one record onto l.frames; curSize counts it as
// part of the current segment at once, so rotation falls where it would
// if every frame were written as it was framed.
func (l *Log) appendFrame(a *Ack) {
	var hdr [frameHeader + 1]byte
	size := uint32(1 + len(a.data))
	binary.BigEndian.PutUint32(hdr[4:8], size)
	binary.BigEndian.PutUint64(hdr[8:16], a.lsn)
	binary.BigEndian.PutUint64(hdr[16:24], a.epoch)
	hdr[24] = a.typ
	crc := crc32.Checksum(hdr[4:], castagnoli)
	crc = crc32.Update(crc, castagnoli, a.data)
	binary.BigEndian.PutUint32(hdr[0:4], crc)
	l.frames = append(append(l.frames, hdr[:]...), a.data...)
	l.curSize += int64(frameHeader) + int64(size)
}

// writeFrames hands the gathered frames to the current segment in one
// write and empties the buffer.
func (l *Log) writeFrames() error {
	if len(l.frames) == 0 {
		return nil
	}
	n, err := l.w.Write(l.frames)
	l.frames = l.frames[:0]
	l.opts.Metrics.bytes.Add(int64(n))
	return err
}

// rotate syncs and closes the current segment and opens a new one
// whose name records its first LSN.
func (l *Log) rotate(firstLSN uint64) error {
	if l.cur != nil {
		if err := l.syncFile(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return err
		}
		l.cur = nil
	}
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(firstLSN)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.setSegment(f, 0, firstLSN)
	l.opts.Metrics.segments.Inc()
	return nil
}

// setSegment makes f, holding size bytes, the segment frames go to.
func (l *Log) setSegment(f *os.File, size int64, firstLSN uint64) {
	l.cur, l.curSize, l.curFirst = f, size, firstLSN
	l.w = f
	if l.opts.wrapWriter != nil {
		l.w = l.opts.wrapWriter(f)
	}
}

// syncFile fsyncs the current segment (unless NoSync).
func (l *Log) syncFile() error {
	if l.cur == nil || l.opts.NoSync {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return err
	}
	l.opts.Metrics.fsyncs.Inc()
	return nil
}
