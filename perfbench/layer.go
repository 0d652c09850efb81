package main

import (
	"fmt"

	"divlab/internal/exp"
	"divlab/internal/sim"
)

// pfStems are the metric stems of the evaluated prefetchers, in registry
// order, and instObservers those that also watch the instruction stream.
func pfStems() (stems []string, instObservers map[string]bool) {
	instObservers = map[string]bool{"tpc": true}
	for _, n := range sim.AllEvaluated() {
		stems = append(stems, registryMetric(n.Name))
	}
	return stems, instObservers
}

// setExpMetrics reports each experiment's wall time (median over the
// traced passes) and the simulations it ran.
func setExpMetrics(m *metricSet, tr *tracer) {
	for _, name := range exp.Names() {
		spans := tr.named("exp." + name)
		var walls []float64
		sims := 0.0
		for _, s := range spans {
			walls = append(walls, float64(s.End-s.Start)/1e9)
			sims = s.Attrs["sims"]
		}
		m.set("exp."+name+".wall_s", median(walls), "s")
		m.set("exp."+name+".sims", sims, "count")
	}
}

// naExp prints the exp layer's metrics as 0, with the reason, on a
// workload that runs no experiment.
func naExp(m *metricSet, why string) {
	for _, name := range exp.Names() {
		m.set("exp."+name+".wall_s", 0, "s")
		m.set("exp."+name+".sims", 0, "count")
	}
	m.notes = append(m.notes, "exp.* are 0: "+why)
}

// naStore prints the store layer's metrics as 0, with the reason, on a
// workload without a store.
func naStore(m *metricSet, why string) {
	for _, n := range []struct{ name, unit string }{
		{"store.get_ms_p50", "ms"}, {"store.get_ms_tail", "ms"}, {"store.read_mb", "MB"},
		{"store.errs", "count"}, {"store.put_ms_p50", "ms"}, {"store.write_mb", "MB"},
	} {
		m.set(n.name, 0, n.unit)
	}
	m.notes = append(m.notes, "store.* are 0: "+why)
}

// setRunnerMetrics reports the engine counters of a traced pass.
func setRunnerMetrics(m *metricSet, a attrSet) {
	m.set("runner.jobs", a["jobs"], "count")
	m.set("runner.sims", a["sims"], "count")
	m.set("runner.cache_hits", a["cache_hits"], "count")
	m.set("runner.store_hits", a["store_hits"], "count")
	m.set("runner.hit_ratio", ratio(a["cache_hits"]+a["store_hits"], a["jobs"]), "ratio")
}

// layerStage produces the sim, prefetch, cpu, mem, cache, dram and metrics
// numbers from a traced scope-serial pass: the workload's own when it is
// scope-serial, otherwise one made here.
func layerStage(c config, out *outcome, tr *tracer, p *scopePass) error {
	m := out.layer
	if p == nil {
		id := tr.begin("layer.scope")
		var err error
		p, err = runScope(c, tr)
		tr.end(id, nil)
		if err != nil {
			return err
		}
	}

	// sim: per job, from the job spans and results.
	var insts, pfInsts, jobNs, alloc, lines, issued float64
	for _, id := range p.jobs {
		s := tr.spans[id]
		jobNs += float64(s.End - s.Start)
		alloc += s.Attrs["alloc_bytes"]
	}
	runs := 0.0
	for _, row := range p.res {
		for pi, r := range row {
			insts += float64(r.Core.Insts)
			lines += float64(len(r.MissL1Lines) + len(r.MissL2Lines) + len(r.Attempted) + len(r.IssuedLines))
			runs++
			if pi > 0 {
				pfInsts += float64(r.Core.Insts)
				issued += float64(r.Issued)
			}
		}
	}
	var requests float64
	perPF := map[string]*[2]agg{}
	for _, h := range p.hooks {
		requests += float64(h.requests)
		a := perPF[h.name]
		if a == nil {
			a = &[2]agg{}
			perPF[h.name] = a
		}
		a[0].Calls += h.accessCalls
		a[0].Events += h.accessEvents
		a[0].Ns += h.accessNs
		a[1].Calls += h.instCalls
		a[1].Events += h.instEvents
		a[1].Ns += h.instNs
	}
	m.set("sim.minsts_per_s", ratio(insts/1e6, jobNs/1e9), "Minst/s")
	m.set("sim.alloc_kb_per_run", ratio(alloc/1024, float64(len(p.jobs))), "KB")
	m.set("sim.footprint_lines_per_run", ratio(lines, runs), "count")
	m.set("sim.prefetch_requests_per_kinst", ratio(requests, pfInsts/1000), "count")
	m.set("sim.prefetch_issued_ratio", ratio(issued, requests), "ratio")

	cost := clockCost(tr)
	out.logf("clock: %d ns per timed call subtracted from per-call timings", cost)
	stems, inst := pfStems()
	for _, stem := range stems {
		a := perPF[stem]
		if a == nil {
			return fmt.Errorf("no traced hooks for prefetcher %s", stem)
		}
		m.set("prefetch."+stem+".access_ns", perEvent(a[0], cost), "ns")
		if inst[stem] {
			m.set("prefetch."+stem+".inst_ns", perEvent(a[1], cost), "ns")
		}
	}

	// The replays, one recorded stream at a time.
	lt := &layerTimes{}
	id := tr.begin("layer.replay")
	defer func() { tr.end(id, nil) }()
	memOK, cpuOK := true, true
	for _, s := range p.streams {
		if err := replayMem(tr, s, s.res, lt); err != nil {
			out.check("mem-replay", false, "%v", err)
			memOK = false
		}
		if err := replayCPU(tr, s, s.res, lt); err != nil {
			out.check("cpu-replay", false, "%v", err)
			cpuOK = false
		}
		replayCaches(tr, s, lt)
		s.ops = nil
	}
	if memOK {
		out.check("mem-replay", len(p.streams) > 0, "%d streams, %d accesses returned their recorded latency",
			len(p.streams), lt.memAccess.Calls)
	}
	if cpuOK {
		out.check("cpu-replay", len(p.streams) > 0, "%d streams reproduced their recorded cycles", len(p.streams))
	}
	const pairRounds = 3
	for i := 0; i < pairRounds; i++ {
		replayPairs(tr, p.res, lt)
	}

	m.set("sim.record_ns_per_inst", ratio(float64(lt.record.Ns), float64(lt.record.Events)), "ns")
	m.set("cpu.step_ns_per_inst", ratio(float64(lt.step.Ns), float64(lt.step.Events)), "ns")
	m.set("mem.access_ns", perEvent(lt.memAccess, cost), "ns")
	m.set("mem.prefetch_ns", perEvent(lt.memPrefetch, cost), "ns")
	m.set("mem.prefetch_accept_ratio", ratio(float64(lt.accepted), float64(lt.memPrefetch.Calls)), "ratio")
	for i, lv := range []string{"l1", "l2", "l3"} {
		m.set("cache."+lv+".lookup_ns", perEvent(lt.lookup[i], cost), "ns")
		m.set("cache."+lv+".fill_ns", perEvent(lt.fill[i], cost), "ns")
		m.set("cache."+lv+".hit_ratio", ratio(float64(lt.hits[i]), float64(lt.accesses[i])), "ratio")
	}
	m.set("cache.mshr.alloc_ns", perEvent(lt.mshrAlloc, cost), "ns")
	m.set("cache.mshr.full_ratio", ratio(float64(lt.fullStalls), float64(lt.l1Misses)), "ratio")
	m.set("dram.access_ns", perEvent(lt.dram, cost), "ns")
	m.set("dram.row_hit_ratio", ratio(float64(lt.rowHits), float64(lt.rows)), "ratio")
	m.set("metrics.pair_us", ratio(float64(lt.pairs.Ns)/1e3, float64(lt.pairs.Events)), "us")
	return nil
}
