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
// Table 7 quantifies.
package multisim

import (
	"context"
	"fmt"
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
// before timing (every re-simulation warms identically). Batched
// queries (PrewarmCtx) fan the independent re-simulations over a
// GOMAXPROCS-bounded worker pool; see NewWorkers.
func New(tr *trace.Trace, cfg ooo.Config, warmup int) (*cost.Analyzer, error) {
	return NewWorkers(tr, cfg, warmup, 0)
}

// NewWorkers is New with an explicit fan-out width for batched
// queries: workers <= 0 means GOMAXPROCS, 1 forces serial evaluation.
// Every re-simulation is an independent pure function of (trace,
// config, flags) — the simulator never mutates the trace — so the
// fan-out is result-identical to serial evaluation, just faster; the
// serial width exists as the reference for that property test. The
// configuration is validated up front; simulation failures afterward
// indicate programming errors and panic.
func NewWorkers(tr *trace.Trace, cfg ooo.Config, warmup, workers int) (*cost.Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if warmup < 0 || warmup >= tr.Len() {
		return nil, fmt.Errorf("multisim: warmup %d outside trace of %d", warmup, tr.Len())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eval := func(f depgraph.Flags) int64 {
		res, err := ooo.Simulate(tr, cfg, ooo.Options{Ideal: f, Warmup: warmup})
		if err != nil {
			panic(fmt.Sprintf("multisim: resimulation failed: %v", err))
		}
		return res.Cycles
	}
	if workers == 1 {
		return cost.NewFromFunc(eval), nil
	}
	evalBatch := func(ctx context.Context, flags []depgraph.Flags) ([]int64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := make([]int64, len(flags))
		nw := workers
		if nw > len(flags) {
			nw = len(flags)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(flags) || ctx.Err() != nil {
						return
					}
					out[i] = eval(flags[i])
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	return cost.NewFromBatchFunc(evalBatch, nil), nil
}
