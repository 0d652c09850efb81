package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"divlab/internal/sim"
	"divlab/internal/workloads"
)

// The traced wrapper must be invisible to the simulator: the same result,
// component names and ids, and a recorded stream that the mem and cpu
// replays reproduce exactly.
func TestWrapperIsInvisibleAndStreamsReplay(t *testing.T) {
	cfg := sim.DefaultConfig(30_000)
	cfg.CollectFootprint = true
	ws := workloads.SPEC()
	tr := newTracer("test")
	for i, pf := range sim.AllEvaluated() {
		w := ws[(i*5)%len(ws)]
		plain := sim.RunSingle(w, pf.Factory, cfg)
		rec := &stream{w: w, pf: pf.Name, cfg: cfg}
		wrapped := sim.RunSingle(w, wrapFactory(tr, pf, rec), cfg)
		a, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(wrapped)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s on %s: wrapped result differs from the plain one", pf.Name, w.Name)
		}
		if rec.accesses == 0 {
			t.Fatalf("%s on %s: nothing recorded", pf.Name, w.Name)
		}
		lt := &layerTimes{}
		if err := replayMem(tr, rec, wrapped, lt); err != nil {
			t.Fatal(err)
		}
		if err := replayCPU(tr, rec, wrapped, lt); err != nil {
			t.Fatal(err)
		}
		replayCaches(tr, rec, lt)
		if lt.lookup[0].Calls != int64(rec.accesses) {
			t.Fatalf("%s: cache replay looked up %d lines for %d accesses", pf.Name, lt.lookup[0].Calls, rec.accesses)
		}
	}
	var requests int64
	for _, h := range tr.hooks {
		requests += h.requests
		if h.accessCalls == 0 {
			t.Fatalf("hooks of %s were never timed", h.name)
		}
		if h.name == "tpc" && h.instEvents == 0 {
			t.Fatal("tpc's instruction hook was never timed")
		}
	}
	if requests == 0 {
		t.Fatal("no prefetch requests were counted")
	}
}

// A stream whose recorded latency is wrong fails both replays.
func TestReplaysRejectWrongLatency(t *testing.T) {
	cfg := sim.DefaultConfig(20_000)
	w := workloads.SPEC()[0]
	pf := sim.MustByName("bop")
	tr := newTracer("test")
	rec := &stream{w: w, pf: pf.Name, cfg: cfg}
	res := sim.RunSingle(w, wrapFactory(tr, pf, rec), cfg)
	// Delay the first load by far more than the window can hide.
	for i := range rec.ops {
		if !rec.ops[i].pf && !rec.ops[i].store {
			rec.ops[i].d += 10_000
			break
		}
	}
	if err := replayMem(tr, rec, res, &layerTimes{}); err == nil {
		t.Fatal("mem replay accepted a wrong recorded latency")
	}
	if err := replayCPU(tr, rec, res, &layerTimes{}); err == nil {
		t.Fatal("cpu replay reproduced the cycles from a wrong latency")
	}
}
