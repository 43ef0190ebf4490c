package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the harness around every call it makes into a
// layer; spans inside the program are a later issue. One spanCtx belongs
// to one client goroutine, so recording takes no lock. A nil *spanCtx is
// the untraced run: every method is a no-op.

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; Parent is the index of the enclosing span in the same
// client's list, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Client int    `json:"client"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg is the running total of one span name.
type spanAgg struct {
	Count  int
	Total  time.Duration
	SelfNs time.Duration // Total minus the part child spans cover
}

// maxSpansKept bounds the spans written out per client; the aggregates
// cover every span regardless.
const maxSpansKept = 20_000

type frame struct {
	name    string
	id      int
	start   time.Time
	childNs time.Duration
}

type spanCtx struct {
	epoch  time.Time
	client int
	op     int
	nextID int
	stack  []frame
	kept   []span
	agg    map[string]*spanAgg
}

func newSpanCtx(epoch time.Time, client int) *spanCtx {
	return &spanCtx{epoch: epoch, client: client, agg: make(map[string]*spanAgg)}
}

// beginOp opens the root span of one operation.
func (c *spanCtx) beginOp(name string, op int, now time.Time) {
	if c == nil {
		return
	}
	c.op = op
	c.enterAt(name, now)
}

func (c *spanCtx) enterAt(name string, now time.Time) {
	if c == nil {
		return
	}
	c.stack = append(c.stack, frame{name: name, id: c.nextID, start: now})
	c.nextID++
}

// leaveAt closes the innermost open span.
func (c *spanCtx) leaveAt(now time.Time) {
	if c == nil {
		return
	}
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	c.record(f.name, f.id, f.start, now, f.childNs)
}

// leaf records a span with no children from timestamps the caller
// already took for its own latency sample.
func (c *spanCtx) leaf(name string, start, end time.Time) {
	if c == nil {
		return
	}
	id := c.nextID
	c.nextID++
	c.record(name, id, start, end, 0)
}

func (c *spanCtx) record(name string, id int, start, end time.Time, childNs time.Duration) {
	dur := end.Sub(start)
	parent := -1
	if n := len(c.stack); n > 0 {
		c.stack[n-1].childNs += dur
		parent = c.stack[n-1].id
	}
	a := c.agg[name]
	if a == nil {
		a = &spanAgg{}
		c.agg[name] = a
	}
	a.Count++
	a.Total += dur
	a.SelfNs += dur - childNs
	if len(c.kept) < maxSpansKept {
		c.kept = append(c.kept, span{
			Name: name, Client: c.client, Op: c.op, ID: id, Parent: parent,
			Start: start.Sub(c.epoch).Nanoseconds(), End: end.Sub(c.epoch).Nanoseconds(),
		})
	}
}

// mergeSpans folds the clients' aggregates into one table.
func mergeSpans(ctxs []*spanCtx) map[string]spanAgg {
	out := make(map[string]spanAgg)
	for _, c := range ctxs {
		if c == nil {
			continue
		}
		for name, a := range c.agg {
			m := out[name]
			m.Count += a.Count
			m.Total += a.Total
			m.SelfNs += a.SelfNs
			out[name] = m
		}
	}
	return out
}

// meanMicros is the mean duration of the named span; 0 if none ran.
func meanMicros(aggs map[string]spanAgg, name string) float64 {
	a := aggs[name]
	if a.Count == 0 {
		return 0
	}
	return float64(a.Total.Nanoseconds()) / 1e3 / float64(a.Count)
}

// writeSpans writes the kept spans as JSON lines, ordered by start.
func writeSpans(path string, ctxs []*spanCtx) error {
	var all []span
	for _, c := range ctxs {
		if c != nil {
			all = append(all, c.kept...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
