package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"divlab/internal/mem"
	"divlab/internal/workloads"
)

// lineOp is one footprint update: a count increment, or an OR of mask.
type lineOp struct {
	line mem.Line
	mask uint32 // 0 means increment
}

// applyOps runs ops through a lineTable and through a plain map, the
// reference the table replaced, and returns both published results.
func applyOps(tb *testing.T, ops []lineOp) (got, want map[mem.Line]uint32) {
	tb.Helper()
	var t lineTable
	want = map[mem.Line]uint32{}
	for _, op := range ops {
		if op.mask == 0 {
			*t.at(op.line)++
			want[op.line]++
		} else {
			*t.at(op.line) |= op.mask
			want[op.line] |= op.mask
		}
	}
	got = t.publish()
	if t.ents != nil || t.n != 0 {
		tb.Fatal("publish kept the slab")
	}
	return got, want
}

// collidingLines returns n distinct lines whose hashes share every top bit
// up to 2^44 slots: the hash is a multiplication by an odd constant, a
// bijection mod 2^64, so j times its inverse hashes to j itself. Every line
// starts probing at slot 0 whatever the table size, one cluster of n.
func collidingLines(n int) []mem.Line {
	const m = 0x9E3779B97F4A7C15
	inv := uint64(m) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - m*inv
	}
	if uint64(m)*inv != 1 {
		panic("no inverse")
	}
	ls := make([]mem.Line, n)
	for j := range ls {
		ls[j] = mem.Line(uint64(j+1) * inv)
	}
	return ls
}

// TestLineTableDifferential pins the footprint line table to a plain map:
// random streams, keys that all collide in the hash, sequences long enough
// to cross several growths, and OR-accumulated masks. The published map
// must equal the reference, with one entry per distinct line.
func TestLineTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randLine := func(space uint64) mem.Line {
		for {
			if l := mem.Line(rng.Uint64() % space); l != emptyLine {
				return l
			}
		}
	}
	cases := map[string][]lineOp{"empty": nil}
	for _, space := range []uint64{16, 3000, 1 << 20, ^uint64(0)} {
		var ops []lineOp
		for i := 0; i < 20_000; i++ {
			ops = append(ops, lineOp{line: randLine(space)})
		}
		cases[fmt.Sprint("random/", space)] = ops
	}
	var masks []lineOp
	for i := 0; i < 20_000; i++ {
		masks = append(masks, lineOp{line: randLine(5000), mask: 1 << rng.Intn(32)})
	}
	cases["masks"] = masks
	// A stream of distinct lines crosses every growth from the first slab
	// to 64K slots; revisiting them afterwards probes the final layout.
	var stream []lineOp
	for pass := 0; pass < 2; pass++ {
		for l := 0; l < 40_000; l++ {
			stream = append(stream, lineOp{line: mem.Line(1<<22 + l)})
		}
	}
	cases["growth"] = stream
	var coll []lineOp
	cl := collidingLines(3000)
	for i := 0; i < 9000; i++ {
		op := lineOp{line: cl[rng.Intn(len(cl))]}
		if i%2 == 1 {
			op.mask = 1 << rng.Intn(8)
		}
		coll = append(coll, op)
	}
	cases["colliding"] = coll
	// Lines equal in their low 32 bits: only a full-width key compare
	// tells them apart inside a probe cluster.
	var high []lineOp
	for pass := 0; pass < 2; pass++ {
		for k := 1; k <= 5000; k++ {
			high = append(high, lineOp{line: mem.Line(0x12345678 + uint64(k)<<32)})
		}
	}
	cases["high-bits"] = high

	for name, ops := range cases {
		got, want := applyOps(t, ops)
		if got == nil {
			t.Errorf("%s: published a nil map", name)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d entries published, %d distinct lines", name, len(got), len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: published map differs from the reference", name)
		}
	}
}

func sumLines(m map[mem.Line]uint32) uint64 {
	var s uint64
	for _, n := range m {
		s += uint64(n)
	}
	return s
}

// checkConservation asserts that each per-line count footprint sums to its
// aggregate counter, and that no footprint holds a line with a zero value:
// presence in a footprint is itself a measurement (scope counts a line as
// covered when it is in Attempted).
func checkConservation(t *testing.T, who string, r *Result) {
	t.Helper()
	for i, m := range []map[mem.Line]uint32{r.MissL1Lines, r.MissL2Lines, r.Attempted, r.IssuedLines} {
		if m == nil {
			t.Fatalf("%s: footprint-on result with nil map %d", who, i)
		}
		for line, v := range m {
			if v == 0 {
				t.Fatalf("%s: map %d holds line %#x with value 0", who, i, line)
			}
		}
	}
	if s := sumLines(r.MissL1Lines); s != r.L1Misses {
		t.Errorf("%s: sum(MissL1Lines) = %d, L1Misses = %d", who, s, r.L1Misses)
	}
	if s := sumLines(r.MissL2Lines); s != r.L2Misses {
		t.Errorf("%s: sum(MissL2Lines) = %d, L2Misses = %d", who, s, r.L2Misses)
	}
	if s := sumLines(r.IssuedLines); s != r.Issued {
		t.Errorf("%s: sum(IssuedLines) = %d, Issued = %d", who, s, r.Issued)
	}
	if len(r.IssuedLines) > len(r.Attempted) {
		t.Errorf("%s: %d issued lines but only %d attempted", who, len(r.IssuedLines), len(r.Attempted))
	}
}

// TestFootprintConservation checks the published footprints against the
// run's own counters for the baseline and every evaluated prefetcher on
// three workloads, and for each core of a 4-core mix.
func TestFootprintConservation(t *testing.T) {
	cfg := DefaultConfig(20_000)
	cfg.CollectFootprint = true
	pfs := append([]Named{{Name: "none"}}, AllEvaluated()...)
	for _, wn := range []string{"stream.pure", "chase.rand", "region.hot"} {
		w, ok := workloads.ByName(wn)
		if !ok {
			t.Fatalf("workload %s missing", wn)
		}
		for _, p := range pfs {
			checkConservation(t, p.Name+"/"+wn, RunSingle(w, p.Factory, cfg))
		}
	}
	cfg.Cores = 4
	tpc, _ := ByName("tpc")
	mix := workloads.Mixes(1, 3)[0]
	for i, r := range RunMulti(mix, tpc.Factory, cfg) {
		checkConservation(t, fmt.Sprintf("tpc/%s/core%d", mix.Name, i), r)
	}
}

// TestFootprintRetainedHeap pins what a footprint-on result keeps alive to
// its entry count: exact-size maps keep a few dozen bytes per entry, while a
// map pre-sized far beyond its contents keeps hundreds.
func TestFootprintRetainedHeap(t *testing.T) {
	const maxPerEntry = 64 // bytes
	w, _ := workloads.ByName("stream.pure")
	tpc, _ := ByName("tpc")
	for _, n := range []uint64{20_000, 60_000} {
		cfg := DefaultConfig(n)
		cfg.CollectFootprint = true
		RunSingle(w, tpc.Factory, cfg) // first-use state outside the result
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := RunSingle(w, tpc.Factory, cfg)
		runtime.GC()
		runtime.ReadMemStats(&after)
		entries := len(r.MissL1Lines) + len(r.MissL2Lines) + len(r.Attempted) + len(r.IssuedLines)
		runtime.KeepAlive(r)
		if entries < 1000 {
			t.Fatalf("%d insts: only %d footprint entries; too few to measure", n, entries)
		}
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		per := retained / int64(entries)
		t.Logf("%d insts: %d B retained for %d footprint entries (%d B/entry)", n, retained, entries, per)
		if per > maxPerEntry {
			t.Errorf("%d insts: result retains %d B for %d footprint entries (%d B/entry), want <= %d",
				n, retained, entries, per, maxPerEntry)
		}
	}
}
