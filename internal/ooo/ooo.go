// Package ooo is the cycle-level out-of-order processor simulator
// (the paper's Table 6 machine, standing in for the authors'
// SimpleScalar-derived simulator).
//
// The simulator consumes an architectural trace (package trace) and
// computes, for every dynamic instruction, the five timing events of
// the dependence-graph model — dispatch, ready, execute, complete,
// commit — while running the machine's stateful components
// functionally in program order: branch predictor + BTB + RAS
// (package bpred), the cache/TLB hierarchy (package cache), and the
// functional-unit pools (package fu). Dynamic arbitration — FU issue
// contention, taken-branch fetch-group breaks, cache-line-sharing
// leadership — is resolved during simulation and recorded as edge
// latencies, so the emitted dependence graph's unidealized critical
// path equals the simulated execution time exactly.
//
// Simulate also accepts an idealization set (paper Table 1), which is
// how package multisim implements the "many idealized simulations"
// baseline: under idealization the machine re-arbitrates structural
// resources, which is precisely the second-order effect the pure
// graph analysis approximates away (quantified in Table 7).
package ooo

import (
	"fmt"

	"icost/internal/bpred"
	"icost/internal/cache"
	"icost/internal/depgraph"
	"icost/internal/fu"
	"icost/internal/isa"
	"icost/internal/program"
	"icost/internal/trace"
)

// Config assembles the machine configuration. Timing parameters live
// in Graph (shared with the dependence-graph model); the memory
// latencies in Cache and Graph must agree — NewConfig and the With*
// helpers keep them in sync.
type Config struct {
	Graph depgraph.Config
	Cache cache.Config
	Pred  bpred.Config
	FU    fu.Counts
	// MaxTakenPerCycle: fetch stops at the second taken branch in a
	// cycle (Table 6), i.e. at most this many taken branches join one
	// fetch group.
	MaxTakenPerCycle int
	// StoreCommitBW is the number of stores that can retire to the
	// memory system per cycle; the resulting contention is recorded
	// on CC edges (paper Figure 5b: "store BW contention").
	StoreCommitBW int
	// ModelWrongPath, when set, walks the front end down the
	// predicted path after every misprediction, polluting (and
	// sometimes prefetching) the instruction cache and ITLB — a
	// second-order effect execution-driven simulators model and
	// trace-driven ones usually drop. Off by default; its effect is
	// quantified by BenchmarkWrongPath.
	ModelWrongPath bool
}

// DefaultConfig is the paper's Table 6 machine.
func DefaultConfig() Config {
	return Config{
		Graph:            depgraph.DefaultConfig(),
		Cache:            cache.DefaultConfig(),
		Pred:             bpred.DefaultConfig(),
		FU:               fu.DefaultCounts(),
		MaxTakenPerCycle: 2,
		StoreCommitBW:    2,
	}
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if err := c.Graph.Validate(); err != nil {
		return err
	}
	if c.Graph.DL1Latency != c.Cache.DL1Latency ||
		c.Graph.L2Latency != c.Cache.L2Latency ||
		c.Graph.MemLatency != c.Cache.MemLatency ||
		c.Graph.TLBMissLatency != c.Cache.TLBMissLatency {
		return fmt.Errorf("ooo: graph and cache latency configs disagree")
	}
	if c.MaxTakenPerCycle < 1 {
		return fmt.Errorf("ooo: MaxTakenPerCycle must be >= 1")
	}
	if c.StoreCommitBW < 1 {
		return fmt.Errorf("ooo: StoreCommitBW must be >= 1")
	}
	return nil
}

// WithDL1Latency returns a copy with the level-one data-cache latency
// set in both the timing model and the hierarchy (the Section 4.1
// experiment uses 4).
func (c Config) WithDL1Latency(n int) Config {
	c.Graph.DL1Latency = n
	c.Cache.DL1Latency = n
	return c
}

// WithL2Latency returns a copy with the additional L2-hit latency set
// in both the timing model and the hierarchy.
func (c Config) WithL2Latency(n int) Config {
	c.Graph.L2Latency = n
	c.Cache.L2Latency = n
	return c
}

// WithMemLatency returns a copy with the additional L2-miss latency
// set in both the timing model and the hierarchy.
func (c Config) WithMemLatency(n int) Config {
	c.Graph.MemLatency = n
	c.Cache.MemLatency = n
	return c
}

// WithTLBMissLatency returns a copy with the translation-miss latency
// set in both the timing model and the hierarchy.
func (c Config) WithTLBMissLatency(n int) Config {
	c.Graph.TLBMissLatency = n
	c.Cache.TLBMissLatency = n
	return c
}

// WithWindow returns a copy with the re-order buffer size set.
func (c Config) WithWindow(n int) Config {
	c.Graph.Window = n
	return c
}

// WithWakeupExtra returns a copy with extra issue-wakeup latency (the
// Section 4.2 experiment uses 1, i.e. a two-cycle wakeup loop).
func (c Config) WithWakeupExtra(n int) Config {
	c.Graph.WakeupExtra = n
	return c
}

// WithBranchRecovery returns a copy with the branch-misprediction
// loop length set (the Section 4.2 experiment uses 15).
func (c Config) WithBranchRecovery(n int) Config {
	c.Graph.BranchRecovery = n
	return c
}

// Options selects per-run behaviour.
type Options struct {
	// Ideal idealizes event classes during simulation (paper
	// Table 1); used by the multi-simulation baseline.
	Ideal depgraph.Flags
	// KeepGraph retains the built dependence graph in the result.
	// The graph is always built (the simulator computes through it);
	// this only controls whether it is returned.
	KeepGraph bool
	// Warmup runs the first Warmup trace instructions through the
	// stateful components (caches, TLBs, branch predictor) without
	// timing them, mirroring the paper's methodology of skipping
	// billions of instructions before detailed simulation. The
	// result covers only the remaining instructions.
	Warmup int
	// Timing, when non-nil, is filled by SimulateStream and
	// SimulateWindowed with the consumer-side stage breakdown of their
	// wall time; Simulate ignores it.
	Timing *StreamTiming
}

// Stats counts functional events, for reports and signature bits.
type Stats struct {
	Insts         int
	CondBranches  int64
	Mispredicts   int64
	Loads, Stores int64
	DL1Misses     int64 // loads+stores missing L1 (any level beyond)
	L2Misses      int64 // of those, missing L2 too
	DTLBMisses    int64
	IL1Misses     int64
	IL2Misses     int64
	ITLBMisses    int64
	PartialMisses int64 // loads bound to an outstanding line fill
	StoreForwards int64 // loads with a store-to-load memory dependence
}

// Result is one simulation's outcome.
type Result struct {
	// Cycles is the execution time.
	Cycles int64
	// Stats are the functional event counts.
	Stats Stats
	// Graph is the dependence graph (nil unless Options.KeepGraph).
	Graph *depgraph.Graph
	// Times are the node times computed during simulation (nil
	// unless Options.KeepGraph).
	Times *depgraph.Times
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Stats.Insts) / float64(r.Cycles)
}

// Simulate runs the machine over the trace. The returned graph and
// node times (under KeepGraph) are pool-backed: callers that retire
// them may hand them back via Graph.Release and depgraph.ReleaseTimes,
// and callers that don't simply forgo reuse.
func Simulate(tr *trace.Trace, cfg Config, opt Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Warmup < 0 || opt.Warmup >= tr.Len() {
		return nil, fmt.Errorf("ooo: warmup %d outside trace of %d", opt.Warmup, tr.Len())
	}
	m := newMachine(tr.Prog, cfg, opt, tr.Len()-opt.Warmup)
	// Functional warmup: exercise caches, TLBs and the predictor
	// without timing.
	if opt.Warmup > 0 {
		m.touchCode()
	}
	for i := 0; i < opt.Warmup; i++ {
		m.warm(tr.Static(i), &tr.Insts[i])
	}
	for i := opt.Warmup; i < tr.Len(); i++ {
		m.step(tr.Static(i), &tr.Insts[i])
	}
	return m.finish(opt.KeepGraph)
}

// Run simulates with no idealization and keeps the graph — the common
// case for graph-based cost analysis.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	return Simulate(tr, cfg, Options{KeepGraph: true})
}

// wrongPathFetch walks the static program from the mispredicted
// target for up to depth instructions, touching the icache/ITLB the
// way speculative fetch would. Conditional branches fall through
// (wrong-path outcomes are unknown and the predictor must not be
// perturbed — its history repair assumes in-order predict/update
// pairing); unconditional direct transfers are followed; indirect
// transfers end the walk.
func wrongPathFetch(hier *cache.Hierarchy, prog *program.Program, target isa.Addr, depth int) {
	idx := prog.IndexOf(target)
	for step := 0; step < depth && idx >= 0; step++ {
		in := prog.At(idx)
		hier.InstAccess(in.PC)
		switch in.Op {
		case isa.OpJump, isa.OpCall:
			idx = prog.IndexOf(in.Target)
		case isa.OpReturn, isa.OpJumpIndirect:
			return
		default:
			idx++
			if idx >= prog.Len() {
				return
			}
		}
	}
}
