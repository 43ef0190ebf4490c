package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Append frames one record, stamped with the log's epoch and the next
// LSN, and writes it to the current segment, rotating first when that
// segment is full. LSN order is append order: callers that need the log
// order to match an apply order hold their own mutex across Append and
// the apply. The record is durable once Commit(lsn) returns. A failed
// write poisons the log and is returned here.
func (l *Log) Append(typ uint8, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	lsn := l.nextLSN
	if l.cur == nil || l.curSize >= int64(l.opts.SegmentBytes) {
		if err := l.rotate(lsn); err != nil {
			return 0, l.fail(err)
		}
	}
	n, err := l.w.Write(l.appendFrame(lsn, typ, data))
	l.curSize += int64(n)
	l.opts.Metrics.bytes.Add(int64(n))
	if err != nil {
		return 0, l.fail(err)
	}
	l.nextLSN++
	l.opts.Metrics.appends.Inc()
	return lsn, nil
}

// Commit returns once every record with LSN <= lsn is durable. One
// fsync runs at a time and covers everything appended before it began,
// so committers that arrive while one is on the disk wait for it and
// then share the next. With NoSync no fsync is issued. A failed fsync
// poisons the log.
func (l *Log) Commit(lsn uint64) error {
	start := time.Now()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	locked := time.Now()
	err := l.commitRound(lsn)
	end := time.Now()
	// Where the time went: waiting behind the fsync already on the disk,
	// this committer's own round, and entry to durable in total.
	m := l.opts.Metrics
	m.queueLat.Observe(locked.Sub(start).Seconds())
	m.flushLat.Observe(end.Sub(locked).Seconds())
	m.commitLat.Observe(end.Sub(start).Seconds())
	return err
}

// commitRound syncs the current segment, unless lsn is durable already,
// and advances the durable LSN to the last record appended before the
// sync. Callers hold l.syncMu.
func (l *Log) commitRound(lsn uint64) error {
	l.mu.Lock()
	f, last, err := l.cur, l.nextLSN-1, l.err
	l.mu.Unlock()
	if err != nil || lsn <= l.durable {
		return err
	}
	err = l.syncFile(f)
	if errors.Is(err, os.ErrClosed) {
		// Rotated or closed away since: that path synced it first.
		err = nil
	}
	l.mu.Lock()
	err = l.fail(err)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.opts.Metrics.batches.Inc()
	l.opts.Metrics.batchRecords.Observe(float64(last - l.durable))
	l.durable = last
	return nil
}

// Close syncs and closes the current segment. Appends after Close fail;
// a poisoned log returns its poison here too.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil {
		l.fail(l.syncFile(l.cur))
		l.fail(l.cur.Close())
		l.cur = nil
	}
	l.closed = true
	return l.err
}

// fail latches the first non-nil err as the log's poison and returns
// the poison. Callers hold l.mu.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// appendFrame frames one record into l.frame and returns it.
func (l *Log) appendFrame(lsn uint64, typ uint8, data []byte) []byte {
	var hdr [frameHeader + 1]byte
	binary.BigEndian.PutUint32(hdr[4:8], uint32(1+len(data)))
	binary.BigEndian.PutUint64(hdr[8:16], lsn)
	binary.BigEndian.PutUint64(hdr[16:24], l.epoch)
	hdr[24] = typ
	crc := crc32.Update(crc32.Checksum(hdr[4:], castagnoli), castagnoli, data)
	binary.BigEndian.PutUint32(hdr[0:4], crc)
	l.frame = append(append(l.frame[:0], hdr[:]...), data...)
	return l.frame
}

// rotate syncs and closes the current segment and opens a new one
// whose name records its first LSN. The sync comes before the close,
// so a committer that finds its file closed is already covered. The
// new segment's directory entry is synced before any frame goes into
// it: until then a power loss could drop the whole segment, records
// Commit acknowledged included, and leave the log with a hole.
func (l *Log) rotate(firstLSN uint64) error {
	if l.cur != nil {
		if err := l.syncFile(l.cur); err != nil {
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
	l.setSegment(f, 0)
	l.opts.Metrics.segments.Inc()
	return l.syncDir()
}

// syncDir fsyncs the segment directory (unless NoSync).
func (l *Log) syncDir() error {
	if l.opts.NoSync {
		return nil
	}
	return syncDir(l.opts.Dir, l.opts.dirSynced)
}

// syncDir fsyncs directory path and reports it to synced, when set.
func syncDir(path string, synced func(string)) error {
	dir, err := os.Open(path)
	if err != nil {
		return err
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return err
	}
	if synced != nil {
		synced(path)
	}
	return nil
}

// MkdirAll makes dir and its missing parents, as os.MkdirAll does, then
// (unless noSync) fsyncs the parent of each directory it made, deepest
// first: a new directory's entry is durable only once its parent is.
// synced, a test seam, is called with each directory fsynced when set.
func MkdirAll(dir string, noSync bool, synced func(string)) error {
	if noSync {
		return os.MkdirAll(dir, 0o755)
	}
	var made []string // the directories missing, deepest first
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); err == nil {
			break
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		made = append(made, d)
		if filepath.Dir(d) == d {
			break
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range made {
		if err := syncDir(filepath.Dir(d), synced); err != nil {
			return err
		}
	}
	return nil
}

// setSegment makes f, holding size bytes, the segment frames go to.
func (l *Log) setSegment(f *os.File, size int64) {
	l.cur, l.curSize = f, size
	l.w = f
	if l.opts.wrapWriter != nil {
		l.w = l.opts.wrapWriter(f)
	}
}

// syncFile fsyncs f (unless NoSync or there is no segment).
func (l *Log) syncFile(f *os.File) error {
	if f == nil || l.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	l.opts.Metrics.fsyncs.Inc()
	return nil
}
