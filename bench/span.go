package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around its call into that layer. Spans of one
// request share Req; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// spanLog is one goroutine's span buffer: appends take no lock, so the
// hot path of a traced run costs two clock reads and an append.
type spanLog struct {
	t     *tracer
	spans []span
	next  int64 // IDs are base+n, unique across logs
}

// tracer keeps spans in memory until the run ends. A nil *tracer, and
// the nil *spanLog it hands out, record nothing, so untraced runs
// execute the same code without the clock reads.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// log returns a new buffer for one goroutine.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLog{t: t, next: int64(len(t.logs)+1) << 40}
	t.logs = append(t.logs, l)
	return l
}

// begin opens a span and returns its index in the log, or -1 untraced.
func (l *spanLog) begin(name string, parent, req int64) int {
	if l == nil {
		return -1
	}
	l.next++
	l.spans = append(l.spans, span{
		ID: l.next, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(l.t.epoch)),
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.t.epoch))
}

// id returns the span ID for index i (0 untraced), for use as a parent.
func (l *spanLog) id(i int) int64 {
	if l == nil || i < 0 {
		return 0
	}
	return l.spans[i].ID
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// layerTime is the time attributed to one span name.
type layerTime struct {
	Count int
	Total time.Duration
	// Self is Total minus the part of each span's interval that its
	// child spans cover.
	Self time.Duration
}

// selfTimes aggregates spans by name. Children overlapping each other
// are merged before subtraction, so parallel children are not counted
// twice against their parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		dur := s.End - s.Start
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	end := parent.Start // everything before end is already counted
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, parent.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// nested reports whether every span with a parent lies within it and
// shares its request ID — the property a reader of the trace file
// relies on.
func nested(spans []span) bool {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			return false
		}
	}
	return true
}

// write stores the spans one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
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
