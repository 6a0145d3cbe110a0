// Batched multi-idealization evaluation. The power-set workloads of
// interaction-cost analysis — the 2^k Möbius terms of an icost query,
// the k^2 cells of an all-pairs matrix, the per-fragment queries of
// the shotgun profiler — all re-evaluate the same graph under many
// idealizations. The scalar walk (runInto) pays the per-instruction
// overhead once per idealization; EvalBatch instead walks the graph
// once per lane-width idealizations, keeping node times in
// structure-of-arrays lanes: each instruction's flat CSR columns are
// loaded a single time, then a tight fixed-width inner loop applies
// them to every lane. The lane width is configurable (Config.Lanes,
// default picked per GOMAXPROCS); scratch lanes are recycled through
// the package allocator, and batches wider than one chunk fan out
// across GOMAXPROCS goroutines (each chunk polls ctx, so a batch is
// cancellable mid-walk).
package depgraph

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"icost/internal/faultinject"
)

// maxLanes bounds Config.Lanes: beyond 64 lanes the per-instruction
// working set (3 lanes' rows around the current instruction plus the
// scattered producer reads) falls out of L1 and wider stops paying.
const maxLanes = 64

// defaultLanes is the auto-picked lane width (Config.Lanes == 0).
// 8 lanes keep the working set comfortably inside L1 while amortizing
// the column loads; a single-threaded process (GOMAXPROCS=1) cannot
// fan chunks out across cores, so it runs wider lanes instead —
// amortizing each column load over 16 idealizations is the only
// parallelism available to it.
func defaultLanes() int {
	if runtime.GOMAXPROCS(0) == 1 {
		return 16
	}
	return 8
}

// laneWidth resolves the effective batch lane width for this graph.
func (g *Graph) laneWidth() int {
	if w := g.Cfg.Lanes; w > 0 {
		return w
	}
	return defaultLanes()
}

// EvalBatch computes the execution time of the microexecution under
// every idealization in ids, walking the graph once per lane-width
// idealizations. Results are bit-exact with ExecTime on each element.
// Batches larger than one chunk fan out across min(GOMAXPROCS, chunks)
// goroutines; every chunk polls ctx each ctxCheckStride instructions,
// so cancellation lands mid-batch. An idealization with a
// per-instruction mask must have exactly Len() entries.
func (g *Graph) EvalBatch(ctx context.Context, ids []Ideal) ([]int64, error) {
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
	width := g.laneWidth()
	chunks := (len(ids) + width - 1) / width
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for s := 0; s < len(ids); s += width {
			e := s + width
			if e > len(ids) {
				e = len(ids)
			}
			if err := g.evalChunk(ctx, width, ids[s:e], out[s:e]); err != nil {
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
				e := s + width
				if e > len(ids) {
					e = len(ids)
				}
				if err := g.evalChunk(cctx, width, ids[s:e], out[s:e]); err != nil {
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

// evalChunk evaluates up to width lanes with one graph walk. Short
// chunks are padded with copies of the first lane so the kernel
// always runs at the full width — the lane loop's trip count is
// uniform across the walk — at the price of some redundant work on
// the final chunk. The only heap allocation is the pad slice for a
// short final chunk; full chunks run entirely on pooled scratch.
//
//lint:hotpath allocs=1
func (g *Graph) evalChunk(ctx context.Context, width int, ids []Ideal, out []int64) error {
	n := g.Len()
	sc := acquireLanes(n, width)
	defer releaseLanes(sc)
	lanes := ids
	if len(ids) < width {
		pad := make([]Ideal, width)
		copy(pad, ids)
		for k := len(ids); k < width; k++ {
			pad[k] = ids[0]
		}
		lanes = pad
	}
	if err := g.evalLanes(ctx, lanes, sc); err != nil {
		return err
	}
	for w := range ids {
		out[w] = sc.c[(n-1)*width+w] + 1
	}
	return nil
}

// batchLane is one lane of a batch walk. A global lane's multipliers
// are resolved once; a lane with a per-instruction mask looks each
// instruction's lane up in tabs[tab], the lane table it shares with
// every masked lane of the same scale vector.
type batchLane struct {
	scaledLane
	glob Flags
	per  []Flags
	tab  int
}

// evalLanes is the batch kernel: one walk over the graph, a
// fixed-width inner loop over the lanes. The lane rows are resliced to
// exactly W elements per instruction, so the inner loop's bounds are
// known and its trip count uniform (evalChunk pads short batches).
// Budget: the per-lane constants and the masked lanes' tables, sized
// by chunk width, not graph length.
//
//lint:hotpath allocs=2
func (g *Graph) evalLanes(ctx context.Context, ids []Ideal, sc *laneScratch) error {
	W := len(ids)
	n := g.Len()
	D, P, C := sc.d, sc.p, sc.c
	cfg := &g.Cfg
	dr := int64(cfg.DispatchToReady)
	pc := int64(cfg.CompleteToCommit)
	rec := int64(cfg.BranchRecovery)
	wake := int64(cfg.WakeupExtra)
	fbw, cbw := cfg.FetchBW, cfg.CommitBW
	ddB, reL, ccL := g.DDBreak, g.RELat, g.CCLat
	pr1, pr2, ld := g.Prod1, g.Prod2, g.PPLeader
	ft := g.tables()
	epL, epC, epDm, icc, mp := ft.epLat, ft.epClass, ft.epDMiss, ft.icache, ft.mispPrev

	lanes := make([]batchLane, W)
	var tabs []laneTable
	for w := range ids {
		id := &ids[w]
		lanes[w] = batchLane{scaledLane: scaledLaneOf(cfg, id.Global, id.Scale), glob: id.Global, per: id.PerInst}
		if id.PerInst == nil {
			continue
		}
		k := 0
		for k < len(tabs) && tabs[k].s != id.Scale {
			k++
		}
		if k == len(tabs) {
			tabs = append(tabs, laneTable{cfg: cfg, s: id.Scale})
		}
		lanes[w].tab = k
	}
	anyPer := len(tabs) > 0

	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		ddBreak := int64(ddB[i])
		icLat := int64(icc[i])
		reLat := int64(reL[i])
		ccLat := int64(ccL[i])
		epLat := int64(epL[i])
		cls := epC[i] & (numEPClasses - 1)
		dmL := int64(epDm[i])
		// Producer indices of -1 scale to negative offsets, so the
		// per-lane guards below stay a sign test.
		p1Row, p2Row, leadRow := int(pr1[i])*W, int(pr2[i])*W, int(ld[i])*W
		misp := mp[i] != 0
		base := i * W
		prev := base - W
		fbwRow, cbwRow := base-fbw*W, base-cbw*W
		dRow := D[base : base+W]
		pRow := P[base : base+W]
		cRow := C[base : base+W]
		for w := 0; w < W; w++ {
			ln := &lanes[w].scaledLane
			// The PD edge is gated and scaled by the branch's (i-1's)
			// effective flags; instruction 0 is never misp.
			recM := ln.recM
			if anyPer {
				if bl := &lanes[w]; bl.per != nil {
					tab := &tabs[bl.tab]
					ln = tab.of(bl.glob | bl.per[i])
					if misp {
						recM = tab.of(bl.glob | bl.per[i-1]).recM
					}
				}
			}
			d := scaleLat(ddBreak, ln.bwM) + scaleLat(icLat, ln.icM)
			if i > 0 {
				d += D[prev+w]
				if misp && recM > 0 {
					if v := P[prev+w] + scaleLat(rec, recM); v > d {
						d = v
					}
				}
			}
			if ln.bwM > 0 && fbwRow >= 0 {
				if v := D[fbwRow+w] + 1; v > d {
					d = v
				}
			}
			if wr := base - ln.win*W; wr >= 0 {
				if v := C[wr+w]; v > d {
					d = v
				}
			}
			dRow[w] = d

			r := d + dr
			if p1Row >= 0 {
				if v := P[p1Row+w] + wake; v > r {
					r = v
				}
			}
			if p2Row >= 0 {
				if v := P[p2Row+w] + wake; v > r {
					r = v
				}
			}

			e := r + scaleLat(reLat, ln.bwM)

			p := e + scaleLat(epLat, ln.ep[cls]) + scaleLat(dmL, ln.dmM)
			if leadRow >= 0 && ln.dmM > 0 {
				if v := P[leadRow+w]; v > p {
					p = v
				}
			}
			pRow[w] = p

			c := p + pc
			if i > 0 {
				if cc := C[prev+w] + scaleLat(ccLat, ln.bwM); cc > c {
					c = cc
				}
			}
			if ln.bwM > 0 && cbwRow >= 0 {
				if v := C[cbwRow+w] + 1; v > c {
					c = v
				}
			}
			cRow[w] = c
		}
	}
	return nil
}
