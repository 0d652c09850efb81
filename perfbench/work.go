package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtm "runtime/metrics"
	"strings"
	"syscall"
	"time"

	"divlab/internal/exp"
	"divlab/internal/mem"
	"divlab/internal/runner"
	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/workloads"
)

// procStart is read while the main package initializes, after the runtime
// and every imported package: the earliest instant the benchmark sees.
var procStart = time.Now()

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     string // "quick" or "full" (expall and expall-warm)
	workers  int
	probe    bool
	dir      string // scratch for stores and the span dump
}

// expOptions returns the experiment options of this run.
func (c config) expOptions() exp.Options {
	o := exp.QuickOptions()
	if c.size == "full" {
		o = exp.DefaultOptions()
	}
	o.Seed = c.seed
	o.Workers = c.workers
	return o
}

// nominal picks a workload's nominal pass length in seconds for this run's
// size: its pass length on a 2-vCPU Xeon with 2 workers, or more where the
// workload's set-up already takes much of the run's time.
func (c config) nominal(quick, full float64) float64 {
	if c.size == "full" {
		return full
	}
	return quick
}

// golden is the committed reference report for this size at seed 1.
func (c config) golden() string {
	if c.seed != 1 {
		return ""
	}
	if c.size == "full" {
		return "experiments_full.txt"
	}
	return filepath.Join("internal", "exp", "testdata", "quick_all.golden")
}

// scopeInsts is the per-job instruction budget of scope-serial.
const scopeInsts = 300_000

// minPasses is the fewest measured passes a run makes, so that every
// run has a median and enough latency samples for a tail.
const minPasses = 2

// iter is one measured pass over a workload.
type iter struct {
	wall float64   // seconds from the first job to the last result
	cpu  float64   // user + system seconds over the same interval
	jobs uint64    // jobs answered: simulations, cache hits and store hits
	lat  []float64 // milliseconds per request
}

// check is one output check.
type check struct {
	name string
	ok   bool
	info string
}

// outcome is everything one benchmark run measured and checked.
type outcome struct {
	iters     []iter
	setups    []float64
	attempted uint64
	checks    []check
	layer     *metricSet
	lines     []string // human-readable report lines
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

func (o *outcome) logf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return len(o.checks) > 0
}

// cpuSeconds is the process's user + system time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []rtm.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtm.Read(s)
	return s[0].Value.Uint64()
}

// settle collects the previous pass's garbage so passes do not inherit each
// other's heap; it runs between passes, outside every timed interval.
func settle() { runtime.GC() }

// engineAttrs reads the engine counters recorded at span edges.
func engineAttrs(e *runner.Engine) attrSet {
	hits, _ := e.Stats()
	st := e.StoreStats()
	return attrSet{"jobs": float64(e.Jobs()), "sims": float64(e.Sims()), "cache_hits": float64(hits),
		"store_hits": float64(st.Hits), "store_errs": float64(st.Errs)}
}

func deltaAttrs(a, b attrSet) attrSet {
	d := attrSet{}
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// ---------------------------------------------------------------------------
// expall and expall-warm: exp.RunAll on a fresh engine.

// expWriter buffers the text report and timestamps each experiment's header
// as RunAll writes it, which is where that experiment starts.
type expWriter struct {
	buf    bytes.Buffer
	heads  [][]byte
	at     []time.Time
	onHead func(i int)
}

func newExpWriter() *expWriter {
	w := &expWriter{}
	for _, n := range exp.Names() {
		w.heads = append(w.heads, []byte(fmt.Sprintf("==== %s: %s ====\n", n, exp.Describe(n))))
	}
	return w
}

func (w *expWriter) Write(p []byte) (int, error) {
	if i := len(w.at); i < len(w.heads) && bytes.Equal(p, w.heads[i]) {
		w.at = append(w.at, time.Now())
		if w.onHead != nil {
			w.onHead(i)
		}
	}
	return w.buf.Write(p)
}

// runAll makes one exp.RunAll pass on eng. Under a tracer every experiment is a span carrying the
// engine counters it moved.
func runAll(c config, eng *runner.Engine, tr *tracer) ([]byte, iter, error) {
	o := c.expOptions()
	o.Engine = eng
	w := newExpWriter()
	names := exp.Names()
	cur, from := -1, attrSet(nil)
	if tr != nil {
		w.onHead = func(i int) {
			if cur >= 0 {
				tr.end(cur, deltaAttrs(from, engineAttrs(eng)))
			}
			from = engineAttrs(eng)
			cur = tr.begin("exp." + names[i])
		}
	}
	u0 := cpuSeconds()
	err := exp.RunAll(exp.TextSink(w), o)
	end := time.Now()
	u1 := cpuSeconds()
	if cur >= 0 {
		tr.end(cur, deltaAttrs(from, engineAttrs(eng)))
	}
	if err == nil && len(w.at) != len(names) {
		err = fmt.Errorf("saw %d of %d experiment headers", len(w.at), len(names))
	}
	if err != nil {
		return nil, iter{}, err
	}
	it := iter{
		wall: end.Sub(w.at[0]).Seconds(),
		cpu:  u1 - u0,
		jobs: eng.Jobs(),
	}
	for i, t := range w.at {
		next := end
		if i+1 < len(w.at) {
			next = w.at[i+1]
		}
		it.lat = append(it.lat, float64(next.Sub(t))/1e6)
	}
	return w.buf.Bytes(), it, nil
}

func digestOf(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// checkGolden compares a report with the committed reference for this size,
// when the seed has one.
func checkGolden(out *outcome, c config, text []byte) {
	path := c.golden()
	if path == "" {
		out.logf("golden: none at seed %d; reports are checked against each other", c.seed)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		out.check("golden", false, "read %s: %v", path, err)
		return
	}
	out.check("golden", bytes.Equal(text, want), "report %s vs %s %s", digestOf(text), path, digestOf(want))
}

// runExpAll is the expall workload: exp.RunAll on a fresh engine with one
// worker per CPU and no store, repeated for the run's duration.
func runExpAll(c config, out *outcome, tr *tracer) error {
	var ref []byte
	var untraced, traced []float64
	for n := 0; n < passes(c.seconds, c.nominal(7.5, 29)); n++ {
		eng := runner.New(runner.WithWorkers(c.workers))
		text, it, err := runAll(c, eng, nil)
		if err != nil {
			return err
		}
		out.iters = append(out.iters, it)
		untraced = append(untraced, it.wall)
		if ref == nil {
			ref = text
			checkGolden(out, c, text)
		} else if !bytes.Equal(text, ref) {
			out.check("repeat", false, "pass %d report %s differs from pass 1 %s", n+1, digestOf(text), digestOf(ref))
		}
		settle()
		if tr != nil {
			eng = runner.New(runner.WithWorkers(c.workers))
			id := tr.begin("pass")
			ttext, tit, err := runAll(c, eng, tr)
			tr.end(id, engineAttrs(eng))
			if err != nil {
				return err
			}
			traced = append(traced, tit.wall)
			out.check("traced-report", bytes.Equal(ttext, ref), "traced report %s, untraced %s", digestOf(ttext), digestOf(ref))
			out.attempted += tit.jobs
			settle()
		}
	}
	out.check("report", ref != nil, "report %s, %d bytes", digestOf(ref), len(ref))
	logExperiments(out)
	if tr != nil {
		out.layer.set("bench.trace_overhead", ratio(median(traced), median(untraced)), "ratio")
	}
	return nil
}

// logExperiments prints each experiment's median latency over the passes.
func logExperiments(out *outcome) {
	var b strings.Builder
	for i, name := range exp.Names() {
		var ms []float64
		for _, it := range out.iters {
			ms = append(ms, it.lat[i])
		}
		fmt.Fprintf(&b, " %s=%.0f", name, median(ms))
	}
	out.logf("experiment ms:%s", b.String())
}

// passes is how many measured passes a run makes: as many as fit in
// seconds at the workload's nominal pass length, and at least minPasses.
// The count depends only on the flags, so every run of a workload pools the
// same number of samples.
func passes(seconds, nominal float64) int {
	return max(minPasses, int(math.Round(seconds/nominal)))
}

// warmFills is how many times expall-warm fills a store during set-up.
const warmFills = 3

// runExpAllWarm is the expall-warm workload. Set-up fills an FS store with
// a cold exp.RunAll (several times, into fresh stores, so set-up has a
// median); the measured passes run exp.RunAll on fresh engines over the
// first store and must simulate nothing.
func runExpAllWarm(c config, out *outcome, tr *tracer) error {
	var base store.Store
	var cold []byte
	var putOps []storeOp
	from := procStart
	for k := 0; k < warmFills; k++ {
		dir := filepath.Join(c.dir, fmt.Sprintf("store-%d", k))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		fs, err := store.OpenFS(dir)
		if err != nil {
			return err
		}
		var s store.Store = fs
		var ts *tracedStore
		var id int
		if tr != nil {
			ts = &tracedStore{inner: fs, t: tr}
			s = ts
			id = tr.begin("fill")
		}
		eng := runner.New(runner.WithWorkers(c.workers), runner.WithStore(s))
		text, _, err := runAll(c, eng, nil)
		if tr != nil {
			tr.end(id, engineAttrs(eng))
			putOps = append(putOps, ts.drain()...)
		}
		if err != nil {
			return err
		}
		out.setups = append(out.setups, time.Since(from).Seconds())
		st := eng.StoreStats()
		if st.Puts == 0 || st.Errs != 0 {
			out.check("fill", false, "fill %d stored %d results with %d errors", k+1, st.Puts, st.Errs)
		}
		if k == 0 {
			cold, base = text, fs
			checkGolden(out, c, text)
		} else {
			if !bytes.Equal(text, cold) {
				out.check("fill-repeat", false, "fill %d report %s differs from fill 1 %s", k+1, digestOf(text), digestOf(cold))
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		settle()
		from = time.Now()
	}
	if tr != nil {
		setStoreMetrics(out.layer, putOps, true, warmFills)
	}
	// pass runs exp.RunAll on a fresh engine over the filled store and
	// checks it answered everything from the store.
	pass := func(st store.Store, t *tracer) (iter, error) {
		eng := runner.New(runner.WithWorkers(c.workers), runner.WithStore(st))
		var id int
		if t != nil {
			id = t.begin("pass")
		}
		text, it, err := runAll(c, eng, t)
		if t != nil {
			t.end(id, engineAttrs(eng))
		}
		if err != nil {
			return it, err
		}
		sims, errs := eng.Sims(), eng.StoreStats().Errs
		ok := bytes.Equal(text, cold) && sims == 0 && errs == 0
		if !ok || len(out.iters) == 0 {
			out.check("warm", ok, "warm report %s vs cold %s, runner.sims=%d store.errs=%d, store hits %d",
				digestOf(text), digestOf(cold), sims, errs, eng.StoreStats().Hits)
		}
		settle()
		return it, nil
	}
	var untraced, traced []float64
	var getOps []storeOp
	for n := 0; n < passes(c.seconds, c.nominal(5, 12)); n++ {
		it, err := pass(base, nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, it.wall)
		out.iters = append(out.iters, it)
		if tr != nil {
			ts := &tracedStore{inner: base, t: tr}
			it, err := pass(ts, tr)
			if err != nil {
				return err
			}
			traced = append(traced, it.wall)
			out.attempted += it.jobs
			getOps = append(getOps, ts.drain()...)
		}
	}
	logExperiments(out)
	if tr != nil {
		setStoreMetrics(out.layer, getOps, false, len(traced))
		out.layer.set("bench.trace_overhead", ratio(median(traced), median(untraced)), "ratio")
	}
	return nil
}

// setStoreMetrics turns timed store calls into the store layer's metrics:
// Puts (set-up) when puts is set, Gets otherwise. Bytes are per run of
// exp.RunAll: runs is how many the calls came from.
func setStoreMetrics(m *metricSet, ops []storeOp, puts bool, runs int) {
	var ms []float64
	var bytes, errs float64
	for _, op := range ops {
		if op.err {
			errs++
		}
		if op.put != puts {
			continue
		}
		ms = append(ms, float64(op.ns)/1e6)
		bytes += float64(op.bytes)
	}
	if puts {
		m.set("store.put_ms_p50", median(ms), "ms")
		m.set("store.write_mb", bytes/(1<<20)/float64(runs), "MB")
		return
	}
	m.set("store.get_ms_p50", median(ms), "ms")
	v, pct, n, _ := tail(ms)
	m.set("store.get_ms_tail", v, "ms")
	m.notes = append(m.notes, fmt.Sprintf("store.get_ms_tail is p%.1f of %d gets", pct, n))
	m.set("store.read_mb", bytes/(1<<20)/float64(runs), "MB")
	m.set("store.errs", errs, "count")
}

// ---------------------------------------------------------------------------
// scope-serial: the Fig. 10 job set, one job at a time on one worker.

// scopePass is one scope-serial pass: results[w][p] with p = 0 the
// baseline, and the streams recorded for the layer replays.
type scopePass struct {
	res     [][]*sim.Result
	streams []*stream
	it      iter
	digest  string
	// Traced passes only: the engine's counters at the end, the job spans
	// and the hook counters of the pass's prefetchers.
	attrs attrSet
	jobs  []int
	hooks []*hookStats
}

// scopeSet is the job set: every SPEC workload under the baseline and every
// evaluated prefetcher, with footprint collection on.
func scopeSet(seed uint64) ([]workloads.Workload, []sim.Named, sim.Config) {
	cfg := sim.DefaultConfig(scopeInsts)
	cfg.Seed = seed
	cfg.CollectFootprint = true
	return workloads.SPEC(), append([]sim.Named{sim.Baseline()}, sim.AllEvaluated()...), cfg
}

// recorded picks the jobs whose streams a traced pass records: one per
// prefetcher, on workloads spread over the suite and rotated by the seed.
func recorded(seed uint64, wi, pi, nw int) bool {
	return pi > 0 && wi == (pi*5+int(seed%uint64(nw)))%nw
}

// runScope makes one scope-serial pass on a fresh one-worker engine.
// Under a tracer every job is a span, every prefetcher hook is timed and the
// chosen jobs' streams are recorded.
func runScope(c config, tr *tracer) (*scopePass, error) {
	ws, pfs, cfg := scopeSet(c.seed)
	eng := runner.New(runner.WithWorkers(1))
	p := &scopePass{res: make([][]*sim.Result, len(ws))}
	ctx := context.Background()
	var first, last time.Time
	var u0 float64
	h0 := 0
	if tr != nil {
		h0 = len(tr.hooks)
	}
	for wi, w := range ws {
		p.res[wi] = make([]*sim.Result, len(pfs))
		for pi, pf := range pfs {
			job := runner.Job{Workload: w, Prefetcher: pf, Config: cfg}
			var id int
			var from attrSet
			var a0 uint64
			if tr != nil {
				var rec *stream
				if recorded(c.seed, wi, pi, len(ws)) {
					rec = &stream{w: w, pf: pf.Name, cfg: cfg}
					p.streams = append(p.streams, rec)
				}
				job.Prefetcher.Factory = wrapFactory(tr, pf, rec)
				from, a0 = engineAttrs(eng), allocBytes()
				id = tr.begin("job." + w.Name + "." + registryMetric(pf.Name))
			}
			t0 := time.Now()
			if first.IsZero() {
				first, u0 = t0, cpuSeconds()
			}
			r := eng.Run(ctx, []runner.Job{job})
			last = time.Now()
			if tr != nil {
				a := deltaAttrs(from, engineAttrs(eng))
				a["alloc_bytes"] = float64(allocBytes() - a0)
				tr.end(id, a)
				p.jobs = append(p.jobs, id)
			}
			p.it.lat = append(p.it.lat, float64(last.Sub(t0))/1e6)
			if len(r) != 1 || r[0] == nil {
				return nil, fmt.Errorf("job %s/%s returned no result", w.Name, pf.Name)
			}
			p.res[wi][pi] = r[0]
			if n := len(p.streams); n > 0 && p.streams[n-1].res == nil {
				p.streams[n-1].res = r[0]
			}
		}
	}
	if tr != nil {
		p.attrs = engineAttrs(eng)
		p.hooks = tr.hooks[h0:]
	}
	p.it.cpu = cpuSeconds() - u0
	p.it.wall = last.Sub(first).Seconds()
	p.it.jobs = eng.Jobs()
	return p, nil
}

// hash digests every result of the pass in job order, so two commits
// compare exactly on any seed: the counters through the results' own JSON
// codec, and each footprint map as its size and an order-independent sum
// of mixed (line, count) entries, which avoids sorting millions of keys.
func (p *scopePass) hash() error {
	h := sha256.New()
	for _, row := range p.res {
		for _, r := range row {
			flat := *r
			maps := []map[mem.Line]uint32{r.MissL1Lines, r.MissL2Lines, r.Attempted, r.IssuedLines}
			flat.MissL1Lines, flat.MissL2Lines, flat.Attempted, flat.IssuedLines = nil, nil, nil, nil
			b, err := json.Marshal(&flat)
			if err != nil {
				return err
			}
			h.Write(b)
			for _, m := range maps {
				var sum uint64
				for line, n := range m {
					sum += mix(uint64(line)*0x9e3779b97f4a7c15 ^ uint64(n))
				}
				fmt.Fprintf(h, "|%d:%x", len(m), sum)
			}
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil)[:16])
	return nil
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// runScopeSerial is the scope-serial workload.
func runScopeSerial(c config, out *outcome, tr *tracer) (*scopePass, error) {
	var ref string
	var untraced, traced []float64
	var last *scopePass
	for n := 0; n < passes(c.seconds, 7.7); n++ {
		p, err := runScope(c, nil)
		if err != nil {
			return nil, err
		}
		out.iters = append(out.iters, p.it)
		untraced = append(untraced, p.it.wall)
		if err := p.hash(); err != nil {
			return nil, err
		}
		if n == 0 {
			ref = p.digest
		} else if p.digest != ref {
			out.check("repeat", false, "pass %d digest %s differs from pass 1 %s", n+1, p.digest, ref)
		}
		p = nil // let settle collect this pass's results
		settle()
		if tr != nil {
			id := tr.begin("pass")
			tp, err := runScope(c, tr)
			tr.end(id, nil)
			if err != nil {
				return nil, err
			}
			traced = append(traced, tp.it.wall)
			out.attempted += tp.it.jobs
			if last == nil {
				if err := tp.hash(); err != nil {
					return nil, err
				}
				out.check("traced-digest", tp.digest == ref, "traced digest %s, untraced %s", tp.digest, ref)
				last = tp
			}
			settle()
		}
	}
	out.check("results", true, "every job returned a result; digest %s", ref)
	out.logf("digest: %s", ref)
	if tr != nil {
		out.layer.set("bench.trace_overhead", ratio(median(traced), median(untraced)), "ratio")
	}
	return last, nil
}
