// Package wal implements the controller's write-ahead log: a
// segmented, CRC-checksummed, append-only record log with group commit
// at the fsync. Append frames one record and writes it to the current
// segment in the caller, so a failed write is the caller's error at
// once; Commit(lsn) returns when every record up to lsn is durable. One
// fsync runs at a time and covers everything appended before it began,
// so committers that arrive while it is on the disk share the next one.
// That amortizes the fsync — the dominant cost of durability — across
// concurrent writers, while each is still acked only after its bytes
// are durable.
//
// On-disk layout: the log directory holds segment files named by the
// LSN of their first record (0000000000000001.wal). Each record is
// framed as
//
//	crc32c(4) | size(4) | lsn(8) | epoch(8) | type(1) | data
//
// with the checksum covering size..data. The epoch is the leadership
// term of the controller that wrote the record: minted at promotion,
// stamped on every frame, and required to be non-decreasing across the
// log — a regression is corruption, not a torn tail. Replay validates
// every frame and requires LSNs to be contiguous; a torn frame at the
// very tail of the last segment (the crash window of an uncommitted
// write) terminates replay cleanly, while corruption anywhere else is
// an error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	// frameHeader is crc(4) + size(4) + lsn(8) + epoch(8).
	frameHeader = 24
	// segmentSuffix names segment files.
	segmentSuffix = ".wal"

	// DefaultSegmentBytes rotates segments at 16 MiB.
	DefaultSegmentBytes = 16 << 20
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// SegmentBytes rotates to a new segment once the current one
	// reaches this size (0 = DefaultSegmentBytes).
	SegmentBytes int
	// NoSync skips fsync (tests and benchmarks that measure the
	// logging path rather than the disk).
	NoSync bool
	// Metrics, when non-nil, receives append/commit/fsync counters and
	// the queue/flush/commit latency histograms; nil becomes the zero
	// bundle, whose nil handles do nothing.
	Metrics *Metrics
	// Epoch is the leadership term stamped on every appended frame.
	// The effective epoch is the maximum of this and the last epoch
	// already in the log (epochs never regress within one directory),
	// so 0 — the lowest epoch — defers to whatever the log holds.
	Epoch uint64

	// The package's test seams: wrapWriter, when set, wraps every
	// segment file as the writer its frames go through, and dirSynced is
	// called with the directory after every directory fsync.
	wrapWriter func(io.Writer) io.Writer
	dirSynced  func(dir string)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	return o
}

// Record is one replayed log entry. Data aliases the replay buffer and
// is valid only for the duration of the callback; copy it to retain.
type Record struct {
	LSN   uint64
	Epoch uint64
	Type  uint8
	Data  []byte
}

// Log is an append-only segmented record log. Append, Commit and Close
// may be called concurrently.
type Log struct {
	opts  Options
	epoch uint64 // immutable after Open

	// mu orders appends: it assigns LSNs and owns the current segment.
	// w is cur as the writer frames go through; frame is one record's
	// scratch. err is the first write or fsync error, which poisons the
	// log.
	mu      sync.Mutex
	nextLSN uint64
	closed  bool
	err     error
	cur     *os.File
	w       io.Writer
	curSize int64
	frame   []byte

	// syncMu lets one fsync run at a time; durable is the highest LSN
	// known to be on disk.
	syncMu  sync.Mutex
	durable uint64
}

// Open opens (or creates) the log in opts.Dir, scanning existing
// segments to find the next LSN. A torn frame at the tail of the last
// segment — the signature of a crash mid-write — is truncated away so
// appends resume cleanly; its record was never committed. With sync on,
// the parent of every directory Open makes is fsynced before it
// returns, so a power loss cannot drop a fresh log directory, and the
// records acknowledged in it, from the tree.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty dir")
	}
	if err := MkdirAll(opts.Dir, opts.NoSync, opts.dirSynced); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, epoch: opts.Epoch, nextLSN: 1}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		lastLSN, lastEpoch, validLen, err := walkSegment(filepath.Join(opts.Dir, last.name), last.first, 0, true, nil)
		if err != nil {
			return nil, err
		}
		if lastLSN == 0 {
			// A crash between rotate creating the tail segment and its
			// first whole frame leaves a tail with no frames and therefore
			// no epoch; walk earlier segments so a reopen can never stamp a
			// lower epoch than what is already durable.
			for i := len(segs) - 2; i >= 0; i-- {
				pLSN, pEpoch, _, err := walkSegment(filepath.Join(opts.Dir, segs[i].name), segs[i].first, 0, false, nil)
				if err != nil {
					return nil, err
				}
				if pLSN > 0 {
					lastEpoch = pEpoch
					break
				}
			}
		}
		if lastEpoch > l.epoch {
			l.epoch = lastEpoch
		}
		path := filepath.Join(opts.Dir, last.name)
		if fi, err := os.Stat(path); err == nil && fi.Size() > validLen {
			if err := os.Truncate(path, validLen); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.name, err)
			}
		}
		if lastLSN > 0 {
			l.nextLSN = lastLSN + 1
		} else {
			l.nextLSN = last.first
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.setSegment(f, validLen)
	}
	// What recovery found is what it replays as committed.
	l.durable = l.nextLSN - 1
	return l, nil
}

// Epoch returns the leadership term stamped on appended frames: the
// maximum of Options.Epoch and the last epoch found in the log at Open.
func (l *Log) Epoch() uint64 { return l.epoch }

// LastLSN returns the LSN of the most recently appended record (0 when
// the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// TruncateThrough removes whole segments whose records all have
// LSN <= lsn (snapshot-covered prefix). The active segment is never
// removed. Returns the number of segments deleted.
func (l *Log) TruncateThrough(lsn uint64) (int, error) {
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		// Segment i spans [segs[i].first, segs[i+1].first-1].
		if segs[i+1].first-1 > lsn {
			break
		}
		if err := os.Remove(filepath.Join(l.opts.Dir, segs[i].name)); err != nil {
			return removed, fmt.Errorf("wal: %w", err)
		}
		removed++
	}
	l.opts.Metrics.truncated.Add(int64(removed))
	return removed, nil
}

// segment is one discovered segment file.
type segment struct {
	name  string
	first uint64
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unrecognized segment name %q", name)
		}
		segs = append(segs, segment{name: name, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].first {
			return nil, fmt.Errorf("wal: overlapping segments %s and %s", segs[i-1].name, segs[i].name)
		}
	}
	return segs, nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%016d%s", first, segmentSuffix)
}

// walkSegment validates one segment's frames in order: CRC, LSNs
// contiguous from first, and epochs never below prevEpoch nor below one
// another (writers stamp a fixed epoch per log lifetime, so a decrease
// means two leaders shared the directory out of order — split-brain
// residue, never a torn tail). fn, when non-nil, sees every valid frame.
// It returns the last valid LSN (0 if the segment holds none), the last
// epoch seen (prevEpoch if none), and the byte offset where valid frames
// end. In the final segment an invalid frame ends the walk cleanly — a
// torn tail, never acked; anywhere else it is corruption.
func walkSegment(path string, first, prevEpoch uint64, final bool, fn func(Record) error) (last, epoch uint64, validLen int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	epoch = prevEpoch
	want := first
	off := int64(0)
	for int64(len(buf))-off >= frameHeader {
		rest := buf[off:]
		size := binary.BigEndian.Uint32(rest[4:8])
		lsn := binary.BigEndian.Uint64(rest[8:16])
		frameEpoch := binary.BigEndian.Uint64(rest[16:24])
		frameLen := int64(frameHeader) + int64(size)
		ok := size >= 1 && int64(len(rest)) >= frameLen && lsn == want &&
			binary.BigEndian.Uint32(rest[0:4]) == crc32.Checksum(rest[4:frameLen], castagnoli)
		if !ok {
			if final {
				return last, epoch, off, nil
			}
			return 0, 0, 0, fmt.Errorf("wal: corrupt frame at %s+%d (lsn %d expected)", filepath.Base(path), off, want)
		}
		if frameEpoch < epoch {
			return 0, 0, 0, fmt.Errorf("wal: epoch regression %d -> %d at %s+%d", epoch, frameEpoch, filepath.Base(path), off)
		}
		if fn != nil {
			if err := fn(Record{LSN: lsn, Epoch: frameEpoch, Type: rest[24], Data: rest[25:frameLen]}); err != nil {
				return 0, 0, 0, err
			}
		}
		last, epoch, want = lsn, frameEpoch, lsn+1
		off += frameLen
	}
	if off < int64(len(buf)) && !final {
		return 0, 0, 0, fmt.Errorf("wal: trailing garbage at %s+%d", filepath.Base(path), off)
	}
	return last, epoch, off, nil
}

// Replay streams every record with LSN >= from, in order, to fn. A torn
// tail in the final segment ends replay cleanly (those records were
// never acked); corruption anywhere else, a gap in the LSN sequence, or
// an epoch regression across the log is an error. fn's Record.Data
// aliases an internal buffer.
func Replay(dir string, from uint64, fn func(Record) error) (last uint64, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	var want uint64  // next expected LSN; 0 until the first record
	var epoch uint64 // epochs must be non-decreasing across the log
	fromOn := func(r Record) error {
		if r.LSN < from {
			return nil
		}
		return fn(r)
	}
	for si, seg := range segs {
		// Skip segments that end before from: segment i ends at
		// segs[i+1].first-1.
		if si+1 < len(segs) && segs[si+1].first <= from {
			want = segs[si+1].first
			last = segs[si+1].first - 1
			continue
		}
		if want != 0 && seg.first != want {
			return last, fmt.Errorf("wal: gap before %s: expected lsn %d", seg.name, want)
		}
		segLast, segEpoch, _, err := walkSegment(filepath.Join(dir, seg.name), seg.first, epoch, si == len(segs)-1, fromOn)
		if err != nil {
			return last, err
		}
		epoch, want = segEpoch, seg.first
		if segLast > 0 {
			last, want = segLast, segLast+1
		}
	}
	return last, nil
}
