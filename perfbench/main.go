// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a given time, checks the program's output, and prints
// as its last line one JSON object with the run's metrics. With --trace 1
// it instead runs the workload untraced and traced in turn and prints the
// per-layer metrics of the traced run. See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"divlab/internal/exp"
	"divlab/internal/runner"
)

// workloadNames are the workloads, in BENCHMARK.json order.
var workloadNames = []string{"expall", "scope-serial", "expall-warm"}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&c.seed, "seed", 1, "input seed (exp.Options.Seed; also seeds the 4-core mixes and DRAM)")
	flag.Float64Var(&c.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&c.size, "size", "quick", "expall and expall-warm options: quick (exp.QuickOptions) or full (exp.DefaultOptions)")
	flag.BoolVar(&c.probe, "probe", false, "set the workload up, then exit (the set-up probe that setup_s times)")
	flag.StringVar(&c.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and span dumps")
	flag.Parse()
	c.trace = traceFlag == 1
	c.workers = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if c.probe {
		setUp(c)
		return
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// hostRecord describes the machine and runtime a result was measured on.
func hostRecord() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{"model": model, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc": gogc, "go": runtime.Version()}
}

func run(c config) error {
	if c.size != "quick" && c.size != "full" {
		return fmt.Errorf("unknown --size %q", c.size)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if !slices.Contains(workloadNames, c.workload) {
		return fmt.Errorf("unknown --workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
	}
	dir := filepath.Join(c.dir, fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.dir = dir

	out := &outcome{layer: newMetricSet()}
	var tr *tracer
	if c.trace {
		tr = newTracer(fmt.Sprintf("%s/seed=%d/pid=%d", c.workload, c.seed, os.Getpid()))
	}
	var root int
	if tr != nil {
		root = tr.begin("run")
	}
	if c.workload != "expall-warm" {
		s, err := probeSetup(c)
		if err != nil {
			return err
		}
		out.setups = s
	}
	var own *scopePass
	var err error
	switch c.workload {
	case "expall":
		err = runExpAll(c, out, tr)
	case "scope-serial":
		own, err = runScopeSerial(c, out, tr)
	case "expall-warm":
		err = runExpAllWarm(c, out, tr)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		if err := traceReport(c, out, tr, own); err != nil {
			return err
		}
		tr.end(root, nil)
		tr.finish()
		path := filepath.Join(filepath.Dir(c.dir), fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		out.logf("spans: %d written to %s", len(tr.spans), path)
	}
	return report(c, out)
}

// setUp does what a workload does between process start and its first
// job: build the engine and the options or the job list.
func setUp(c config) {
	switch c.workload {
	case "expall":
		o := c.expOptions()
		o.Engine = runner.New(runner.WithWorkers(c.workers))
		_ = exp.TextSink(newExpWriter())
	case "scope-serial":
		ws, pfs, cfg := scopeSet(c.seed)
		jobs := make([]runner.Job, 0, len(ws)*len(pfs))
		for _, w := range ws {
			for _, pf := range pfs {
				jobs = append(jobs, runner.Job{Workload: w, Prefetcher: pf, Config: cfg})
			}
		}
		_ = runner.New(runner.WithWorkers(1))
	}
}

// setupProbes is how many set-up probes a run makes.
const setupProbes = 15

// probeSetup times the workload's set-up from outside: it starts this
// program in probe mode, which exits where the first job would be
// submitted, and times each start to exit.
func probeSetup(c config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe", "--workload", c.workload, "--seed", fmt.Sprint(c.seed), "--size", c.size)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// traceReport fills the per-layer metrics of a traced run.
func traceReport(c config, out *outcome, tr *tracer, own *scopePass) error {
	m := out.layer
	passes := tr.named("pass")
	if len(passes) == 0 {
		return fmt.Errorf("traced run made no traced pass")
	}
	switch c.workload {
	case "scope-serial":
		setRunnerMetrics(m, own.attrs)
		naExp(m, "scope-serial submits jobs directly and runs no experiment")
		naStore(m, "scope-serial has no store")
	case "expall":
		setRunnerMetrics(m, passes[len(passes)-1].Attrs)
		setExpMetrics(m, tr)
		naStore(m, "expall has no store")
	case "expall-warm":
		setRunnerMetrics(m, passes[len(passes)-1].Attrs)
		setExpMetrics(m, tr)
	}
	return layerStage(c, out, tr, own)
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable lines and then the result line.
func report(c config, out *outcome) error {
	host, _ := json.Marshal(hostRecord()) // strings and ints always marshal
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v size=%s workers=%d\n",
		c.workload, c.seed, c.seconds, c.trace, c.size, c.workers)
	fmt.Printf("host: %s\n", host)
	for _, l := range out.lines {
		fmt.Println(l)
	}
	for _, ck := range out.checks {
		status := "ok"
		if !ck.ok {
			status = "FAILED"
		}
		fmt.Printf("check %s: %s: %s\n", ck.name, status, ck.info)
	}

	res := result{Correct: out.correct()}
	res.Attempted = out.attempted
	for _, it := range out.iters {
		res.Attempted += it.jobs
	}
	if !res.Correct {
		// A failed output check fails every job of the run.
		res.Failed = res.Attempted
	}
	fmt.Printf("fail_ratio: %g (%d of %d jobs)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)

	m := out.layer
	if !c.trace {
		m = endToEnd(out)
	}
	for _, name := range m.order {
		fmt.Printf("metric %s = %g %s\n", name, m.m[name].Value, m.m[name].Unit)
	}
	for _, n := range m.notes {
		fmt.Printf("note: %s\n", n)
	}
	res.Metrics = m.m
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd computes the end-to-end metrics from the measured passes.
func endToEnd(out *outcome) *metricSet {
	m := newMetricSet()
	var wall, cpu, rate, p50, lat []float64
	for _, it := range out.iters {
		wall = append(wall, it.wall)
		cpu = append(cpu, it.cpu)
		rate = append(rate, ratio(float64(it.jobs), it.wall))
		p50 = append(p50, median(it.lat))
		lat = append(lat, it.lat...)
	}
	m.notes = append(m.notes, fmt.Sprintf("pass wall_s: %.3f", wall))
	m.set("wall_s", median(wall), "s")
	m.set("cpu_s", median(cpu), "s")
	m.set("jobs_per_s", median(rate), "1/s")
	// The median of each pass's median: on expall and expall-warm a pass
	// has only 14 requests, and a pooled median would sit between the
	// slowest pass of one experiment and the fastest of the next.
	m.set("job_ms_p50", median(p50), "ms")
	// Every workload makes at least minPasses passes of at least 14
	// requests, so there is always a tail.
	v, pct, n, _ := tail(lat)
	m.set("job_ms_tail", v, "ms")
	m.notes = append(m.notes, fmt.Sprintf("job_ms_tail is p%.1f of %d requests", pct, n))
	m.set("setup_s", median(out.setups), "s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	return m
}
