// Package window runs whole analyses over traces too long to hold as
// dependence graphs. It chains the streaming trace generator over a
// ring of recycled segments (workload.ExecuteRecycled), the
// ring-storage simulator (ooo.SimulateWindowed) and the carry-ring
// fold (depgraph.WindowEval) into one bounded-memory pipeline: the
// trace segments, the simulator's functional-unit schedules and
// graph rings, and the fold's carry rings are all functions of the
// machine configuration and the window size — never of trace length —
// so tens-of-millions-instruction traces analyze in a fixed memory
// budget. The fold is exact, not approximate: every lane's
// execution time is bit-identical to what a whole-trace graph walk
// would produce (proven by the golden tests and FuzzWindowFold), and
// every run self-checks by folding a base lane and comparing it
// against the simulator's cycle count.
package window

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// Request describes one windowed analysis.
type Request struct {
	// Bench and Seed name the workload, as in the engine's sessions.
	Bench string
	Seed  uint64
	// TraceLen is the number of timed instructions; Warmup
	// instructions run ahead of them untimed.
	TraceLen int
	Warmup   int
	// WindowInsts is the emission-block size. Larger windows amortize
	// emission overhead; memory grows linearly with it.
	WindowInsts int
	// Sim is the machine configuration. Must satisfy the windowed
	// preconditions (ooo.SimulateWindowed validates).
	Sim ooo.Config
}

// Result is the outcome of a windowed analysis.
type Result struct {
	// Lanes and Times are the requested idealization lanes and their
	// execution times, in request order.
	Lanes []depgraph.Flags
	Times []int64
	// Cycles is the simulated execution time of the real machine. The
	// pipeline verifies it equals the fold of a base (no-idealization)
	// lane before returning.
	Cycles int64
	Stats  ooo.Stats
	// Windows counts emitted blocks; Insts the folded instructions.
	Windows int
	Insts   int64
	// PeakBytes is the peak graph-analysis storage held resident:
	// simulator rings and emission block, every lane group's carry
	// rings, and the block copies in flight to the fold workers.
	// Bounded by configuration and window size, not trace length.
	PeakBytes int64
}

// Analyze runs the windowed pipeline for req, evaluating every lane
// in a single streaming pass. If no lane is the empty idealization, a
// base lane is folded internally anyway (and excluded from the
// result) so the exactness self-check always runs.
func Analyze(ctx context.Context, req Request, lanes []depgraph.Flags) (*Result, error) {
	ids := make([]depgraph.Ideal, len(lanes))
	for i, f := range lanes {
		ids[i] = depgraph.Ideal{Global: f}
	}
	return AnalyzeIdeals(ctx, req, ids)
}

// AnalyzeIdeals is Analyze for full (possibly parametric) global
// idealizations: each lane may carry a scale vector, so a windowed
// session can answer sensitivity queries by re-folding the stream at
// every grid α with bit-identical semantics to a whole-graph walk.
// Per-instruction idealizations are rejected (the stream holds no
// per-instruction state across blocks).
//
// The pass uses up to GOMAXPROCS cores. The simulator runs on the
// caller's goroutine and hands each emitted block to the fold, which
// splits the lanes into min(GOMAXPROCS, lanes) contiguous groups, each
// folded by its own worker goroutine. Lanes are independent columns of
// the recurrence, so the split never changes an answer.
func AnalyzeIdeals(ctx context.Context, req Request, lanes []depgraph.Ideal) (*Result, error) {
	return analyzeIdeals(ctx, req, lanes, runtime.GOMAXPROCS(0))
}

// inflight is how many block copies rotate between the simulator and
// the fold workers: one being filled while up to two wait or fold.
const inflight = 3

// block is one emitted window in flight; pending counts the lane
// groups that have yet to fold it.
type block struct {
	win     depgraph.Window
	pending atomic.Int32
}

// laneGroup is one contiguous run of lanes with its own evaluator and
// work queue.
type laneGroup struct {
	we  *depgraph.WindowEval
	in  chan *block
	err error // first fold error, or ctx's once canceled; read after wg.Wait
}

// fold feeds each queued block to the group's evaluator and returns
// the block to free once every group has folded it. After an error
// (or cancellation, which Feed polls) it keeps draining without
// folding, so the simulator never waits on a buffer that will not come
// back.
func (g *laneGroup) fold(ctx context.Context, free chan<- *block, wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range g.in {
		if g.err == nil {
			g.err = g.we.Feed(ctx, &b.win)
		}
		if b.pending.Add(-1) == 0 {
			free <- b
		}
	}
}

// analyzeIdeals is AnalyzeIdeals with the lanes split into
// min(procs, lanes) groups.
func analyzeIdeals(ctx context.Context, req Request, lanes []depgraph.Ideal, procs int) (*Result, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("window: no idealization lanes")
	}
	if req.WindowInsts < 1 {
		return nil, fmt.Errorf("window: window of %d instructions", req.WindowInsts)
	}
	evalLanes := lanes
	baseAt := -1
	for k, id := range lanes {
		if id.Global == 0 && len(id.PerInst) == 0 {
			baseAt = k
			break
		}
	}
	if baseAt < 0 {
		// Prepend the self-check lane; stripped from the result below.
		evalLanes = append([]depgraph.Ideal{{}}, lanes...)
		baseAt = 0
	}

	w, err := workload.Cached(req.Bench, req.Seed)
	if err != nil {
		return nil, err
	}
	groups := make([]*laneGroup, min(procs, len(evalLanes)))
	for k := range groups {
		lo, hi := k*len(evalLanes)/len(groups), (k+1)*len(evalLanes)/len(groups)
		we, err := depgraph.NewWindowEvalIdeals(req.Sim.Graph, evalLanes[lo:hi], req.TraceLen)
		if err != nil {
			return nil, err
		}
		groups[k] = &laneGroup{we: we, in: make(chan *block, inflight)}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st, err := w.ExecuteRecycled(ctx, req.Warmup+req.TraceLen, req.Seed+1, 0)
	if err != nil {
		return nil, err
	}
	free := make(chan *block, inflight)
	bufs := make([]*block, inflight)
	for k := range bufs {
		bufs[k] = &block{}
		free <- bufs[k]
	}
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go g.fold(ctx, free, &wg)
	}
	var windows int
	var peakBlock int64
	res, err := ooo.SimulateWindowed(ctx, st, req.Sim, ooo.Options{Warmup: req.Warmup}, req.WindowInsts,
		func(win *depgraph.Window) error {
			windows++
			if b := win.Bytes(); b > peakBlock {
				peakBlock = b
			}
			var b *block
			select {
			case b = <-free:
			case <-ctx.Done():
				return ctx.Err()
			}
			b.win.CopyFrom(win)
			b.pending.Store(int32(len(groups)))
			// Never blocks: a group's queue holds only blocks taken
			// from free, and there are inflight of them.
			for _, g := range groups {
				g.in <- b
			}
			return nil
		})
	for _, g := range groups {
		close(g.in)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Every group's rings and every block buffer are resident for the
	// whole pass, on top of the simulator's rings and its own block.
	peak := ooo.WindowedFootprint(&req.Sim.Graph, req.WindowInsts, req.TraceLen) + peakBlock
	for _, b := range bufs {
		peak += b.win.Bytes()
	}
	times := make([]int64, 0, len(evalLanes))
	for _, g := range groups {
		if g.err != nil {
			return nil, g.err
		}
		times = append(times, g.we.ExecTimes()...)
		peak += g.we.RingBytes()
	}
	// The windowed exactness invariant, checked on every analysis:
	// the fold of the un-idealized lane must reproduce the simulated
	// cycle count exactly — the streaming analogue of the whole-graph
	// replay check the monolithic simulator runs.
	if times[baseAt] != res.Cycles {
		return nil, fmt.Errorf("window: base-lane fold %d != simulated %d cycles", times[baseAt], res.Cycles)
	}
	if len(evalLanes) != len(lanes) {
		times = times[1:]
	}
	flags := make([]depgraph.Flags, len(lanes))
	for i, id := range lanes {
		flags[i] = id.Global
	}
	return &Result{
		Lanes:     flags,
		Times:     times,
		Cycles:    res.Cycles,
		Stats:     res.Stats,
		Windows:   windows,
		Insts:     groups[0].we.Insts(),
		PeakBytes: peak,
	}, nil
}
