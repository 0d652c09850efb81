package main

import (
	"fmt"

	"divlab/internal/cache"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/metrics"
	"divlab/internal/sim"
	"divlab/internal/trace"
)

// The layer replays. Each drives one layer's public functions with streams
// recorded at the prefetcher boundary of traced scope-serial jobs, timing
// every call; the clock cost of a call is subtracted (see clockCost).

// layerTimes accumulates per-call timings of the replays.
type layerTimes struct {
	memAccess, memPrefetch agg
	accepted               int64
	lookup, fill           [3]agg
	mshrAlloc              agg
	dram                   agg
	step                   agg // Events = instructions
	record                 agg // Events = instructions
	pairs                  agg
	// Exact ratios read from the replayed hierarchy's own counters.
	hits, accesses [3]uint64
	fullStalls     uint64
	l1Misses       uint64
	rowHits, rows  uint64
}

// timed runs f and returns its duration on t's clock.
func timed(t *tracer, f func()) int64 {
	t0 := t.now()
	f()
	return t.now() - t0
}

// replayMem drives mem.Hierarchy.AccessInto and Prefetch with the stream in
// recorded order. Every access must return the recorded latency, and the
// hierarchy must end with the run's own issue count.
func replayMem(t *tracer, s *stream, res *sim.Result, lt *layerTimes) error {
	cfg := mem.DefaultConfig(1)
	sys := mem.NewSystem(cfg, s.cfg.DropPolicy, s.cfg.Seed)
	h := mem.NewHierarchy(cfg, sys)
	var ev mem.Event
	for i := range s.ops {
		o := &s.ops[i]
		if o.pf {
			var ok bool
			t0 := t.now()
			ok = h.Prefetch(cache.Line(o.a), o.dest, int(o.owner), int(o.prio), o.c)
			lt.memPrefetch.Ns += t.now() - t0
			lt.memPrefetch.Calls++
			lt.memPrefetch.Events++
			if ok {
				lt.accepted++
			}
			continue
		}
		t0 := t.now()
		lat := h.AccessInto(o.a, o.b, o.c, o.store, &ev)
		lt.memAccess.Ns += t.now() - t0
		lt.memAccess.Calls++
		lt.memAccess.Events++
		if lat != o.d {
			return fmt.Errorf("mem replay %s/%s: access %d returned latency %d, recorded %d", s.w.Name, s.pf, i, lat, o.d)
		}
	}
	if h.Stats.PrefetchesIssued != res.Issued || h.L1D.Stats.Misses != res.L1Stats.Misses {
		return fmt.Errorf("mem replay %s/%s: issued %d L1 misses %d, run had %d and %d",
			s.w.Name, s.pf, h.Stats.PrefetchesIssued, h.L1D.Stats.Misses, res.Issued, res.L1Stats.Misses)
	}
	for i, c := range []*cache.Cache{h.L1D, h.L2, sys.L3} {
		lt.hits[i] += c.Stats.Hits
		lt.accesses[i] += c.Stats.Accesses
	}
	lt.fullStalls += h.L1D.MSHR().FullStalls
	lt.l1Misses += h.L1D.Stats.Misses
	d := sys.Mem.Stats
	lt.rowHits += d.RowHits
	lt.rows += d.RowHits + d.RowMisses + d.RowConflicts
	return nil
}

// latPort is a cpu.MemPort that answers with recorded latencies in order.
type latPort struct {
	lats []uint64
	i    int
}

func (p *latPort) Access(pc, addr, at uint64, store bool) uint64 {
	if p.i >= len(p.lats) {
		p.i++
		return 0
	}
	l := p.lats[p.i]
	p.i++
	return l
}

// replayCPU records the job's instruction stream with sim.Record and steps
// it through cpu.Core.StepBatch over a port that returns the recorded
// latencies. The core must reproduce the run's cycle count.
func replayCPU(t *tracer, s *stream, res *sim.Result, lt *layerTimes) error {
	var rec *sim.Recorded
	lt.record.Ns += timed(t, func() { rec = sim.Record(s.w, s.cfg.Seed, s.cfg.Insts) })
	lt.record.Calls++
	lt.record.Events += int64(rec.Insts())

	port := &latPort{lats: make([]uint64, 0, s.accesses)}
	for i := range s.ops {
		if !s.ops[i].pf {
			port.lats = append(port.lats, s.ops[i].d)
		}
	}
	params := s.cfg.CoreParams
	if params.Width == 0 {
		params = cpu.DefaultParams()
	}
	core := cpu.New(params, port, nil)
	src := &trace.Limit{Src: rec.Instance(), N: s.cfg.Insts}
	var batches [][]trace.Inst
	for {
		b := src.NextBatch(1 << 12)
		if len(b) == 0 {
			break
		}
		batches = append(batches, b)
	}
	lt.step.Ns += timed(t, func() {
		for _, b := range batches {
			core.StepBatch(b)
		}
	})
	lt.step.Calls++
	got := core.Result()
	lt.step.Events += int64(got.Insts)
	if port.i != len(port.lats) || got.Cycles != res.Core.Cycles {
		return fmt.Errorf("cpu replay %s/%s: %d cycles over %d of %d latencies, run had %d cycles",
			s.w.Name, s.pf, got.Cycles, port.i, len(port.lats), res.Core.Cycles)
	}
	return nil
}

// replayCaches drives cache.Cache.Lookup and Fill at L1, L2 and L3 geometry,
// the L1 MSHR and a dram.Controller with the stream's demand lines: a miss
// at one level allocates an L1 MSHR entry and looks up the next, a miss at
// L3 goes to DRAM, and each missed level is filled with the line. A
// prefetch fills its destination level when the line is not there. This is
// a cascade over the recorded line stream, not the hierarchy's own policy;
// it times the layers' calls at realistic geometry and hit rates.
func replayCaches(t *tracer, s *stream, lt *layerTimes) {
	cfg := mem.DefaultConfig(1)
	lv := [3]*cache.Cache{cache.New(cfg.L1D), cache.New(cfg.L2), cache.New(cfg.L3)}
	mshr := lv[0].MSHR()
	ctl := dram.NewController(dram.DDR3Default(), s.cfg.DropPolicy, s.cfg.Seed)
	for i := range s.ops {
		o := &s.ops[i]
		if o.pf {
			l := cache.Line(o.a)
			d := int(o.dest)
			if d > 2 || lv[d].Contains(l) {
				continue
			}
			t0 := t.now()
			lv[d].Fill(l, o.c, true, int(o.owner))
			lt.fill[d].Ns += t.now() - t0
			lt.fill[d].Calls++
			lt.fill[d].Events++
			continue
		}
		l := cache.ToLine(o.b)
		at, ready := o.c, o.c+o.d
		missed := 0
		for d := 0; d < 3; d++ {
			t0 := t.now()
			r := lv[d].Lookup(l, at)
			lt.lookup[d].Ns += t.now() - t0
			lt.lookup[d].Calls++
			lt.lookup[d].Events++
			if r.Hit {
				break
			}
			missed++
			if d == 0 {
				t0 = t.now()
				mshr.Allocate(l, at, ready, false)
				lt.mshrAlloc.Ns += t.now() - t0
				lt.mshrAlloc.Calls++
				lt.mshrAlloc.Events++
			}
		}
		if missed == 3 {
			t0 := t.now()
			ctl.Access(dram.Request{LineAddr: l, Owner: cache.NoOwner}, at)
			lt.dram.Ns += t.now() - t0
			lt.dram.Calls++
			lt.dram.Events++
		}
		for d := missed - 1; d >= 0; d-- {
			t0 := t.now()
			ev := lv[d].Fill(l, ready, false, cache.NoOwner)
			lt.fill[d].Ns += t.now() - t0
			lt.fill[d].Calls++
			lt.fill[d].Events++
			if !ev.Valid || !ev.Dirty {
				continue
			}
			if d < 2 {
				// Write the dirty victim back into the next level.
				lv[d+1].MarkDirty(ev.LineAddr)
			} else {
				t0 = t.now()
				ctl.Access(dram.Request{LineAddr: ev.LineAddr, Write: true, Owner: cache.NoOwner}, ready)
				lt.dram.Ns += t.now() - t0
				lt.dram.Calls++
				lt.dram.Events++
			}
		}
		if o.store {
			lv[0].MarkDirty(l)
		}
	}
}

// replayPairs evaluates metrics.Pair over every (workload, prefetcher)
// pair of a scope iteration: the quantities fig10 and fig12 read.
func replayPairs(t *tracer, rows [][]*sim.Result, lt *layerTimes) float64 {
	var sink float64
	for _, row := range rows {
		for _, pf := range row[1:] {
			p := metrics.Pair{Base: row[0], PF: pf}
			lt.pairs.Ns += timed(t, func() {
				sink += p.Scope() + p.EffAccuracyL1() + p.EffAccuracyL2() + p.CoverageL1() +
					p.CoverageL2() + p.Speedup() + p.TrafficNorm()
			})
			lt.pairs.Calls++
			lt.pairs.Events++
		}
	}
	return sink
}
