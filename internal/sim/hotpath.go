package sim

import (
	"divlab/internal/mem"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// HotPath drives the per-access machinery of one single-core run directly —
// no core timing model, no instruction stream — so benchmarks
// (BenchmarkAccessPath) and allocation-regression tests can measure the
// demand/prefetch path in isolation. It wires up exactly the pieces
// RunSingle would: a fresh workload instance, a private hierarchy over its
// own shared system, and the prefetcher under test with assigned component
// ids.
type HotPath struct {
	r   *runner
	sys *mem.System
	at  uint64
}

// NewHotPath builds the hot-path harness for one workload and prefetcher
// factory (nil for the no-prefetch baseline).
func NewHotPath(w workloads.Workload, factory Factory, cfg Config) *HotPath {
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	inst := w.New(cfg.Seed)
	sys := mem.NewSystem(mem.DefaultConfig(1), cfg.DropPolicy, cfg.Seed)
	hier := mem.NewHierarchy(mem.DefaultConfig(1), sys)
	return &HotPath{r: newRunner(cfg, inst, hier, factory), sys: sys}
}

// Access performs one demand access at the internal clock, advances the
// clock one cycle, and returns the observed latency. This is the exact
// cpu.MemPort path a load takes in a real run, including prefetcher
// training and queued-request drain.
func (h *HotPath) Access(pc, addr uint64, store bool) uint64 {
	lat := h.r.Access(pc, addr, h.at, store)
	h.at++
	return lat
}

// OnInst feeds one instruction through the dispatch-time hook (the path
// T2's loop hardware and P1's taint unit observe), draining any prefetches
// it issues.
func (h *HotPath) OnInst(in *trace.Inst) {
	h.r.hook(in, h.at)
}

// Result exposes the accumulating measurements (read-only). A HotPath never
// ends a run, so its footprint maps stay nil even with CollectFootprint set:
// the footprints accumulate in the runner's line tables, which only the end
// of a run publishes.
func (h *HotPath) Result() *Result { return h.r.res }
