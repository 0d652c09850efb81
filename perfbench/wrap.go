package main

import (
	"errors"
	"sync"
	"time"

	"divlab/internal/mem"
	"divlab/internal/prefetch"
	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// hookStats are the per-call counters of one wrapped prefetcher instance.
// Each instance is driven by one simulation on one goroutine, so the
// counters need no synchronization; the tracer reads them after the run.
type hookStats struct {
	name   string
	parent int

	accessCalls, accessEvents, accessNs int64
	instCalls, instEvents, instNs       int64
	// requests counts every prefetch request the component issued.
	requests int64
	// rec, when set, records the demand accesses and requests this
	// instance saw, in hierarchy call order, for the layer replays.
	rec *stream
}

// op is one recorded hierarchy call: a demand access (pc, addr, at, lat)
// or a prefetch request (line in a, at in c).
type op struct {
	pf    bool
	store bool
	dest  mem.Level
	owner int32
	prio  int32
	a, b  uint64
	c, d  uint64
}

// stream is what one single-core job looked like at the prefetcher
// boundary: every access event the component was shown and every request
// it issued, in the order the hierarchy saw them.
type stream struct {
	w        workloads.Workload
	pf       string
	cfg      sim.Config
	ops      []op
	accesses int
	res      *sim.Result // the job's result
}

func (s *stream) access(ev *mem.Event) {
	s.ops = append(s.ops, op{store: ev.Store, a: ev.PC, b: ev.Addr, c: ev.Cycle, d: ev.Latency})
	s.accesses++
}

func (s *stream) prefetch(r prefetch.Request, at uint64) {
	s.ops = append(s.ops, op{pf: true, dest: r.Dest, owner: int32(r.Owner), prio: int32(r.Priority), a: uint64(r.LineAddr), c: at})
}

// idAware is the interface prefetch.AssignIDs uses to number components.
type idAware interface{ SetID(int) }

// tracedPF wraps a prefetcher so every hook call is timed. It forwards
// the scalar and batch interfaces and Children/SetID, so the simulator's
// dispatch and prefetch.AssignIDs treat it exactly like the component
// inside: the same ids, the same names, the same delivery path.
//
// The inner component issues into the wrapper's own sink; after each call
// the requests move, with their per-event cycles, into the simulator's
// sink. That is where requests are counted and recorded.
type tracedPF struct {
	inner prefetch.Component
	batch prefetch.BatchComponent
	st    *hookStats
	t     *tracer

	own prefetch.Sink
	out *prefetch.Sink
	// issue is the simulator's issuer during a scalar call; recIssue is
	// the bound method handed to the component instead.
	issue    prefetch.Issuer
	recIssue prefetch.Issuer
	at       uint64
}

// tracedInstPF adds the instruction hooks for components that observe the
// instruction stream.
type tracedInstPF struct {
	*tracedPF
	inst  prefetch.InstObserver
	instB prefetch.BatchInstObserver
}

// wrapFactory returns a factory whose components are traced under t. When
// rec is non-nil the next component built also records its stream there.
func wrapFactory(t *tracer, n sim.Named, rec *stream) sim.Factory {
	if n.Factory == nil {
		return nil
	}
	stem := registryMetric(n.Name)
	return func(inst workloads.Instance) prefetch.Component {
		c := n.Factory(inst)
		if _, ok := c.(idAware); !ok {
			// A wrapper around a component without an id would take an id
			// of its own and shift every other component's.
			return c
		}
		w := &tracedPF{inner: c, st: t.newHooks(stem), t: t}
		w.st.rec = rec
		w.batch, _ = c.(prefetch.BatchComponent)
		w.own.Init(w)
		w.recIssue = w.forwardOne
		if o, ok := c.(prefetch.InstObserver); ok {
			iw := &tracedInstPF{tracedPF: w, inst: o}
			iw.instB, _ = c.(prefetch.BatchInstObserver)
			return iw
		}
		return w
	}
}

func (w *tracedPF) Name() string     { return w.inner.Name() }
func (w *tracedPF) Reset()           { w.inner.Reset() }
func (w *tracedPF) StorageBits() int { return w.inner.StorageBits() }
func (w *tracedPF) SetID(id int)     { w.inner.(idAware).SetID(id) }

// Children exposes the inner component's children (none for a leaf), so
// AssignIDs walks the same tree it would without the wrapper.
func (w *tracedPF) Children() []prefetch.Component {
	if p, ok := w.inner.(prefetch.Parent); ok {
		return p.Children()
	}
	return nil
}

// OnAccess is the scalar access hook.
func (w *tracedPF) OnAccess(ev *mem.Event, issue prefetch.Issuer) {
	if w.st.rec != nil {
		w.st.rec.access(ev)
	}
	w.issue, w.at = issue, ev.Cycle
	t0 := w.t.now()
	w.inner.OnAccess(ev, w.recIssue)
	w.st.accessNs += w.t.now() - t0
	w.st.accessCalls++
	w.st.accessEvents++
}

// OnAccessBatch is the batch access hook; it uses the inner component's
// native batch path when it has one, as the simulator would.
func (w *tracedPF) OnAccessBatch(evs []mem.Event, sink *prefetch.Sink) {
	if w.st.rec != nil {
		for i := range evs {
			w.st.rec.access(&evs[i])
		}
	}
	w.out = sink
	t0 := w.t.now()
	prefetch.AccessBatch(w.inner, w.batch, evs, &w.own)
	w.st.accessNs += w.t.now() - t0
	w.st.accessCalls++
	w.st.accessEvents += int64(len(evs))
	w.FlushSink()
}

// OnInst is the scalar instruction hook.
func (w *tracedInstPF) OnInst(in *trace.Inst, cycle uint64, issue prefetch.Issuer) {
	w.issue, w.at = issue, cycle
	t0 := w.t.now()
	w.inst.OnInst(in, cycle, w.recIssue)
	w.st.instNs += w.t.now() - t0
	w.st.instCalls++
	w.st.instEvents++
}

// OnInstBatch is the batch instruction hook.
func (w *tracedInstPF) OnInstBatch(insts []trace.Inst, cycles []uint64, sink *prefetch.Sink) {
	w.out = sink
	t0 := w.t.now()
	prefetch.InstBatch(w.inst, w.instB, insts, cycles, &w.own)
	w.st.instNs += w.t.now() - t0
	w.st.instCalls++
	w.st.instEvents += int64(len(insts))
	w.FlushSink()
}

// forwardOne passes one scalar-path request on, counting and recording it.
func (w *tracedPF) forwardOne(r prefetch.Request) {
	w.st.requests++
	if w.st.rec != nil {
		w.st.rec.prefetch(r, w.at)
	}
	w.issue(r)
}

// FlushSink moves the wrapper's collected requests into the simulator's
// sink. It runs after every batch call, and from inside one when the inner
// component fills the wrapper's sink. A new event is opened whenever the
// cycle changes or a full event's worth of requests has gone through, so
// every request keeps its cycle and none meets the per-event cap.
func (w *tracedPF) FlushSink() {
	reqs, ats := w.own.Requests()
	inEvent := 0
	for i := range reqs {
		if i == 0 || ats[i] != ats[i-1] || inEvent == prefetch.EventCap {
			w.out.Advance(ats[i])
			inEvent = 0
		}
		w.out.Issue(reqs[i])
		inEvent++
		if w.st.rec != nil {
			w.st.rec.prefetch(reqs[i], ats[i])
		}
	}
	w.st.requests += int64(len(reqs))
	w.own.Reset()
}

// tracedStore times every Get and Put of the store below the runner.
type tracedStore struct {
	inner store.Store
	t     *tracer

	// Appended to by engine workers; read after the runs that use the store.
	mu  sync.Mutex
	ops []storeOp
}

// storeOp is one timed store call.
type storeOp struct {
	put   bool
	ns    int64
	bytes int
	err   bool
}

func (s *tracedStore) add(name string, t0, t1 int64, op storeOp) {
	s.t.leaf(name, t0, t1)
	op.ns = t1 - t0
	s.mu.Lock()
	s.ops = append(s.ops, op)
	s.mu.Unlock()
}

func (s *tracedStore) Get(digest string) (*store.Record, error) {
	t0 := s.t.now()
	rec, err := s.inner.Get(digest)
	op := storeOp{err: err != nil && !errors.Is(err, store.ErrNotFound)}
	if rec != nil {
		op.bytes = len(rec.Payload)
	}
	s.add("store.get", t0, s.t.now(), op)
	return rec, err
}

func (s *tracedStore) Put(rec *store.Record) error {
	t0 := s.t.now()
	err := s.inner.Put(rec)
	s.add("store.put", t0, s.t.now(), storeOp{put: true, bytes: len(rec.Payload), err: err != nil})
	return err
}

func (s *tracedStore) TryLease(name string, ttl time.Duration) (func() error, bool, error) {
	return s.inner.TryLease(name, ttl)
}

// drain returns and forgets the calls recorded so far.
func (s *tracedStore) drain() []storeOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ops
	s.ops = nil
	return out
}
