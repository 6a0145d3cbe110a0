// Batched multi-idealization evaluation. The power-set workloads of
// interaction-cost analysis — the 2^k Möbius terms of an icost query,
// the k^2 cells of an all-pairs matrix, the per-fragment queries of
// the shotgun profiler — all re-evaluate the same graph under many
// idealizations. The scalar walk (runInto) pays the per-instruction
// overhead once per idealization; EvalBatch instead folds the graph
// once per chunk of idealizations through the windowed kernel
// (WindowEval.fold): the whole graph is one block at Lo = 0, each
// instruction's columns are loaded a single time, and a tight inner
// loop applies them to every lane of the chunk. Node times live in
// carry-deep rings recycled through the package allocator, so scratch
// is a function of the machine configuration, not of graph length.
// Batches wider than one chunk fan out across GOMAXPROCS goroutines
// (each chunk polls ctx, so a batch is cancellable mid-walk).
package depgraph

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"icost/internal/faultinject"
)

// defaultLanes is the chunk width: how many idealizations one fold
// carries. 8 lanes keep the working set comfortably inside L1 while
// amortizing the column loads; a single-threaded process
// (GOMAXPROCS=1) cannot fan chunks out across cores, so it runs wider
// chunks instead — amortizing each column load over 16 idealizations
// is the only parallelism available to it.
func defaultLanes() int {
	if runtime.GOMAXPROCS(0) == 1 {
		return 16
	}
	return 8
}

// EvalBatch computes the execution time of the microexecution under
// every idealization in ids, folding the graph once per chunk of
// idealizations. Results are bit-exact with ExecTime on each element.
// Batches larger than one chunk fan out across min(GOMAXPROCS, chunks)
// goroutines; every chunk polls ctx each ctxCheckStride instructions,
// so cancellation lands mid-batch. An idealization with a
// per-instruction mask must have exactly Len() entries.
func (g *Graph) EvalBatch(ctx context.Context, ids []Ideal) ([]int64, error) {
	return g.evalBatch(ctx, ids, defaultLanes())
}

// evalBatch is EvalBatch at a given chunk width.
func (g *Graph) evalBatch(ctx context.Context, ids []Ideal, width int) ([]int64, error) {
	n := g.Len()
	for k := range ids {
		if ids[k].PerInst != nil && len(ids[k].PerInst) != n {
			return nil, fmt.Errorf("depgraph: batch lane %d: per-instruction mask has %d entries, graph has %d",
				k, len(ids[k].PerInst), n)
		}
	}
	out := make([]int64, len(ids))
	if len(ids) == 0 || n == 0 {
		return out, nil
	}
	// Fault hook: one per batched walk, cancellable walks only (the
	// uncancellable-by-contract prewarm paths pass a Done-less ctx).
	if ctx.Done() != nil {
		if err := faultinject.Hit(ctx, faultinject.GraphWalk); err != nil {
			return nil, err
		}
	}
	view := g.view()
	chunks := (len(ids) + width - 1) / width
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		for s := 0; s < len(ids); s += width {
			e := min(s+width, len(ids))
			if err := g.evalChunk(ctx, view, ids[s:e], out[s:e]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				s := c * width
				e := min(s+width, len(ids))
				if err := g.evalChunk(cctx, view, ids[s:e], out[s:e]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					cancel() // abort the sibling chunks
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, err // the caller's cancellation, not our internal one
		}
		return nil, firstErr
	}
	return out, nil
}

// view is the graph's own columns as one Window at Lo = 0. Producer
// and leader indices are absolute, which at Lo = 0 is already the
// Window's relative form, and a -1 (no producer) reaches before the
// stream start, which the fold reads as absent.
func (g *Graph) view() *Window {
	return &Window{
		N:        g.Len(),
		Info:     g.Info,
		DDBreak:  g.DDBreak,
		RELat:    g.RELat,
		CCLat:    g.CCLat,
		Prod1:    g.Prod1,
		Prod2:    g.Prod2,
		PPLeader: g.PPLeader,
		MispPrev: g.tables().mispPrev,
	}
}

// evalChunk folds the whole graph once for the lanes of ids, with
// node-time rings at the configuration's horizon (Config.Horizon)
// drawn from the package allocator.
// Budget: the evaluator itself, which the masked lanes' tables point
// into; setLanes adds the lane constants and tables, sized by chunk
// width, not graph length.
//
//lint:hotpath allocs=1
func (g *Graph) evalChunk(ctx context.Context, view *Window, ids []Ideal, out []int64) error {
	we := WindowEval{cfg: g.Cfg}
	we.setLanes(ids)
	size := we.setCarry(view.N) * len(ids)
	a := acquireArena(3*size, 0, 0, 0)
	defer releaseArena(a)
	we.d, we.p, we.c = a.i64s(size), a.i64s(size), a.i64s(size)
	if err := we.Feed(ctx, view); err != nil {
		return err
	}
	we.execTimesInto(out)
	return nil
}
