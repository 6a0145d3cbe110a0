// Package multisim implements the paper's baseline methodology for
// measuring costs: run one idealized simulation per cost query
// (Section 6, "multiple-simulation approach"). It is the ground truth
// the dependence-graph analysis (packages depgraph/cost) and the
// shotgun profiler (package profiler) are validated against in
// Table 7, and it is deliberately expensive: a full breakdown costs
// one complete machine simulation per power-set member, which is
// exactly the 2^n blow-up the graph method avoids.
//
// Unlike the pure graph analysis, an idealized re-simulation
// re-arbitrates structural resources — functional-unit contention and
// taken-branch fetch breaks are recomputed under the idealization —
// so its answers differ (slightly, in this implementation) from the
// graph's frozen-latency answers. That difference is the model error
// Table 7 quantifies, and what package refute bounds along whole
// sensitivity curves: an interior α re-simulates the machine with the
// category's latency actually scaled.
package multisim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/trace"
)

// New returns a cost analyzer whose execution times come from
// idealized re-simulation of tr on cfg, skipping warmup instructions
// before timing (every re-simulation warms identically). A batch of
// misses fans its independent re-simulations over a GOMAXPROCS-bounded
// worker pool. An idealization the simulator cannot express (see
// machine) fails its batch with an error, as does a failed simulation.
func New(tr *trace.Trace, cfg ooo.Config, warmup int) (*cost.Analyzer, error) {
	return newWorkers(tr, cfg, warmup, 0)
}

// newWorkers is New with an explicit fan-out width: workers <= 0 means
// GOMAXPROCS, 1 re-simulates serially. Every re-simulation is a pure
// function of (trace, config, idealization) — the simulator never
// mutates the trace — so the width changes only the speed; the serial
// width is the reference of TestParallelBitIdentical.
func newWorkers(tr *trace.Trace, cfg ooo.Config, warmup, workers int) (*cost.Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if warmup < 0 || warmup >= tr.Len() {
		return nil, fmt.Errorf("multisim: warmup %d outside trace of %d", warmup, tr.Len())
	}
	return cost.NewFromEval(resim(tr, cfg, warmup, workers), nil), nil
}

// resim is the re-simulation backend: every idealization maps onto a
// machine (machine) and is simulated on up to workers goroutines
// (GOMAXPROCS when workers <= 0).
func resim(tr *trace.Trace, cfg ooo.Config, warmup, workers int) cost.Eval {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
		cfgs := make([]ooo.Config, len(ids))
		opts := make([]ooo.Options, len(ids))
		for i, id := range ids {
			c, ideal, err := machine(cfg, id)
			if err != nil {
				return nil, err
			}
			cfgs[i], opts[i] = c, ooo.Options{Ideal: ideal, Warmup: warmup}
		}
		return simulate(ctx, tr, cfgs, opts, workers)
	}
}

// simulate runs every (cfgs[i], opts[i]) re-simulation of tr on up to
// workers goroutines and returns their cycle counts in order. The
// first failure — a simulation error or ctx ending — stops the
// remaining runs and is returned.
func simulate(ctx context.Context, tr *trace.Trace, cfgs []ooo.Config, opts []ooo.Options, workers int) ([]int64, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	out := make([]int64, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(cfgs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) || ctx.Err() != nil {
					return
				}
				res, err := ooo.Simulate(tr, cfgs[i], opts[i])
				if err != nil {
					cancel(fmt.Errorf("multisim: re-simulation failed: %w", err))
					return
				}
				out[i] = res.Cycles
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// machine maps an idealization onto the simulator: the configuration
// whose latencies the graph model assumes under id's scale vector, and
// the categories the simulator idealizes outright (α=0,
// ooo.Options.Ideal). A category at α=1 is the unidealized machine. An
// interior α scales dl1's hit latency, bmisp's recovery loop and the
// re-order window (interpolated as depgraph.Config.EffWindow does);
// dmiss and imiss share the L2, memory and TLB-miss latencies, so one
// may sit at an interior α only when the other shares that α or is
// idealized outright. Every other shape — an interior α on bw, shalu
// or lgalu, a per-instruction event set — has no simulator
// counterpart and is an error.
func machine(cfg ooo.Config, id depgraph.Ideal) (ooo.Config, depgraph.Flags, error) {
	if id.PerInst != nil {
		return cfg, 0, fmt.Errorf("multisim: per-instruction event sets cannot be re-simulated")
	}
	s := depgraph.CanonScale(id.Global, id.Scale)
	alpha := func(f depgraph.Flags) depgraph.Alpha { // f is one category
		if id.Global&f == 0 {
			return depgraph.AlphaOne
		}
		return s[bits.TrailingZeros16(uint16(f))]
	}
	interior := func(a depgraph.Alpha) bool { return a > 0 && a < depgraph.AlphaOne }
	var ideal depgraph.Flags
	for b := 0; b < depgraph.NumFlags; b++ {
		if f := depgraph.Flags(1) << b; alpha(f) == 0 {
			ideal |= f
		}
	}
	for _, f := range []depgraph.Flags{depgraph.IdealBW, depgraph.IdealShortALU, depgraph.IdealLongALU} {
		if a := alpha(f); interior(a) {
			return cfg, 0, fmt.Errorf("multisim: %v at α=%v has no simulator counterpart", f, a.Float())
		}
	}
	g := cfg.Graph
	if a := alpha(depgraph.IdealDL1); interior(a) {
		cfg = cfg.WithDL1Latency(depgraph.ScaleLatency(g.DL1Latency, a))
	}
	if a := alpha(depgraph.IdealBMisp); interior(a) {
		cfg = cfg.WithBranchRecovery(depgraph.ScaleLatency(g.BranchRecovery, a))
	}
	if a := alpha(depgraph.IdealWindow); interior(a) {
		cfg = cfg.WithWindow(g.EffWindow(a))
	}
	dm, im := alpha(depgraph.IdealDMiss), alpha(depgraph.IdealICache)
	if interior(dm) || interior(im) {
		a := dm
		if !interior(a) {
			a = im
		}
		if (dm != a && dm != 0) || (im != a && im != 0) {
			return cfg, 0, fmt.Errorf("multisim: dmiss at α=%v and imiss at α=%v share the L2, memory and TLB-miss latencies",
				dm.Float(), im.Float())
		}
		cfg = cfg.WithL2Latency(depgraph.ScaleLatency(g.L2Latency, a)).
			WithMemLatency(depgraph.ScaleLatency(g.MemLatency, a)).
			WithTLBMissLatency(depgraph.ScaleLatency(g.TLBMissLatency, a))
	}
	return cfg, ideal, nil
}
