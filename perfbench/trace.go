package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch; Parent is -1 for the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Self   int64   `json:"self_ns"`
	Calls  []agg   `json:"calls,omitempty"`
	Attrs  attrSet `json:"attrs,omitempty"`
}

// agg is a per-call timing added up under its parent span: Events counts
// what the calls covered (accesses, instructions), Calls the calls made.
type agg struct {
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	Events int64  `json:"events"`
	Ns     int64  `json:"ns"`
}

// attrSet holds counters read at a span's edges.
type attrSet map[string]float64

// tracer keeps spans in memory; write dumps them when the run ends. Spans
// are opened and closed by the single benchmark goroutine; leaf spans (store
// calls) may arrive from engine workers and attach to the span open at the
// time.
type tracer struct {
	run   string
	epoch time.Time
	cur   atomic.Int64

	mu    sync.Mutex
	spans []span
	hooks []*hookStats
}

func newTracer(run string) *tracer {
	t := &tracer{run: run, epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the currently open one and makes it current.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: int(t.cur.Load()), Run: t.run, Name: name, Start: t.now(), End: -1})
	t.cur.Store(int64(id))
	return id
}

// end closes span id, records its edge counters and makes its parent
// current again.
func (t *tracer) end(id int, attrs attrSet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = t.now()
	s.Attrs = attrs
	t.cur.Store(int64(s.Parent))
}

// leaf records a finished span under the currently open one.
func (t *tracer) leaf(name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: int(t.cur.Load()), Run: t.run, Name: name, Start: start, End: end})
}

// newHooks registers per-call counters for one prefetcher instance under
// the current span.
func (t *tracer) newHooks(name string) *hookStats {
	h := &hookStats{name: name, parent: int(t.cur.Load())}
	t.mu.Lock()
	t.hooks = append(t.hooks, h)
	t.mu.Unlock()
	return h
}

// finish folds hook counters into their parent spans and computes self
// times. Call once every instrumented run has returned.
func (t *tracer) finish() {
	byParent := map[int]map[string]*agg{}
	for _, h := range t.hooks {
		m := byParent[h.parent]
		if m == nil {
			m = map[string]*agg{}
			byParent[h.parent] = m
		}
		for _, a := range []agg{
			{Name: "prefetch." + h.name + ".access", Calls: h.accessCalls, Events: h.accessEvents, Ns: h.accessNs},
			{Name: "prefetch." + h.name + ".inst", Calls: h.instCalls, Events: h.instEvents, Ns: h.instNs},
		} {
			if a.Calls == 0 {
				continue
			}
			if m[a.Name] == nil {
				m[a.Name] = &agg{Name: a.Name}
			}
			m[a.Name].Calls += a.Calls
			m[a.Name].Events += a.Events
			m[a.Name].Ns += a.Ns
		}
	}
	children := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = selfTime(interval{s.Start, s.End}, children[s.ID])
		for _, a := range byParent[s.ID] {
			s.Calls = append(s.Calls, *a)
		}
		sort.Slice(s.Calls, func(a, b int) bool { return s.Calls[a].Name < s.Calls[b].Name })
	}
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// clockCost estimates what one timed call adds through its two clock
// reads: the median of many back-to-back read pairs. Per-call timings
// subtract it so that short calls are not dominated by the clock.
func clockCost(t *tracer) int64 {
	const n = 2001
	d := make([]float64, n)
	for i := range d {
		a := t.now()
		b := t.now()
		d[i] = float64(b - a)
	}
	return int64(median(d))
}

// perEvent turns an aggregate into nanoseconds per event, net of the clock
// cost of each call.
func perEvent(a agg, cost int64) float64 {
	if a.Events == 0 {
		return 0
	}
	return float64(max(a.Ns-a.Calls*cost, 0)) / float64(a.Events)
}
