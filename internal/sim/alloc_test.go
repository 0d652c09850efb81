package sim_test

import (
	"testing"

	"divlab/internal/sim"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// The steady-state hot paths must stay allocation-free: per-instruction and
// per-access garbage was the dominant cost of the original simulator (the
// issue closure of each request, the map-shaped per-owner accounting, the
// per-access Event copies). These tests pin the rewritten paths at exactly
// zero allocations so a regression fails CI rather than only showing up in
// benchmark numbers.

func hotPath(t *testing.T, footprint bool) *sim.HotPath {
	t.Helper()
	w, ok := workloads.ByName("stream.pure")
	if !ok {
		t.Fatal("workload stream.pure not registered")
	}
	tpc, err := sim.ByName("tpc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(0)
	cfg.CollectFootprint = footprint
	return sim.NewHotPath(w, tpc.Factory, cfg)
}

// TestDemandHitPathAllocFree pins the L1-hit demand path — the innermost
// loop of every simulation — at zero allocations per access.
func TestDemandHitPathAllocFree(t *testing.T) {
	hp := hotPath(t, false)
	const pc, base = 0x400100, uint64(1) << 28
	// One lap installs the 32 KB working set; afterwards every access hits.
	i := uint64(0)
	touch := func() {
		hp.Access(pc, base+(i&511)*64, false)
		i++
	}
	for k := 0; k < 1024; k++ {
		touch()
	}
	if n := testing.AllocsPerRun(2000, touch); n != 0 {
		t.Fatalf("L1-hit demand path allocates %.1f allocs/op, want 0", n)
	}
}

// TestDemandMissPathAllocFree streams over a large region so every access is
// a primary L1 miss descending the full hierarchy into DRAM. With
// CollectFootprint on, every access also records a new line; the footprint
// tables grow by doubling, so the path stays at 0 allocs/op amortized. The
// measured window is long enough to cross the doubling at 6,144 lines.
func TestDemandMissPathAllocFree(t *testing.T) {
	for _, footprint := range []bool{false, true} {
		hp := hotPath(t, footprint)
		const pc, base = 0x400104, uint64(2) << 28
		i := uint64(0)
		touch := func() {
			hp.Access(pc, base+i*64, false)
			i++
		}
		for k := 0; k < 4096; k++ {
			touch()
		}
		if n := testing.AllocsPerRun(4000, touch); n != 0 {
			t.Fatalf("demand miss path (footprint %v) allocates %.1f allocs/op, want 0", footprint, n)
		}
		checkUnpublished(t, hp)
	}
}

// checkUnpublished asserts that a HotPath, which never ends its run, leaves
// its footprint maps nil.
func checkUnpublished(t *testing.T, hp *sim.HotPath) {
	t.Helper()
	r := hp.Result()
	if r.MissL1Lines != nil || r.MissL2Lines != nil || r.Attempted != nil || r.IssuedLines != nil {
		t.Fatal("HotPath published footprint maps before the end of a run")
	}
}

// TestPrefetchIssuePathAllocFree drives a canonical strided load stream
// through the dispatch hook until T2 locks on and issues prefetches every
// trigger, then pins the issue+install path (queue, classify, hierarchy
// insertion, per-owner accounting) at zero allocations, with and without
// the footprint tables (amortized, as for the demand miss path).
func TestPrefetchIssuePathAllocFree(t *testing.T) {
	for _, footprint := range []bool{false, true} {
		hp := hotPath(t, footprint)
		const pc, base = 0x400108, uint64(3) << 28
		in := trace.Inst{PC: pc, Kind: trace.Load, Dst: 5, Src1: 4}
		i := uint64(0)
		step := func() {
			in.Addr = base + i*64
			hp.OnInst(&in)
			hp.Access(pc, in.Addr, false)
			i++
		}
		for k := 0; k < 4096; k++ {
			step()
		}
		issuedBefore := hp.Result().Issued
		if n := testing.AllocsPerRun(4000, step); n != 0 {
			t.Fatalf("prefetch issue path (footprint %v) allocates %.1f allocs/op, want 0", footprint, n)
		}
		if hp.Result().Issued == issuedBefore {
			t.Fatal("strided stream issued no prefetches; the path under test never ran")
		}
		checkUnpublished(t, hp)
	}
}
