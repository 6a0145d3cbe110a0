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
// against the simulator's cycle count. A pass can also record its
// blocks into a compact block log (Record), which later passes over
// the same stream fold instead of regenerating and re-simulating it
// (Replay, log.go).
package window

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"icost/internal/depgraph"
	"icost/internal/faultinject"
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
	// Sim is the machine configuration (ooo.SimulateWindowed
	// validates it).
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
	// simulator rings and emission block (a replay has none), every
	// lane group's carry rings, and the block copies in flight to the
	// fold workers. Bounded by configuration and window size, not trace
	// length. A block log, which does grow with the trace, is not
	// counted: Log.Bytes reports it.
	PeakBytes int64
	// Gen and Sim split a simulated pass's stages (zero for a replay):
	// the producer's generating and blocked time, and the simulator's
	// stepping and waiting time (ooo.StreamTiming).
	Gen, GenStall, Sim, SimStall int64
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

// Record is AnalyzeIdeals that also records the pass's blocks into
// log, for Replay. The encoding runs on one more consumer goroutine of
// the in-flight blocks, beside the lane groups, not on the simulator's
// goroutine. log is reset first, so it must not be read by a replay
// during the recording. On success log is complete, unless the
// recording outgrew LogCap and was abandoned — the pass's answer
// stands either way. On error log is left incomplete.
func Record(ctx context.Context, req Request, lanes []depgraph.Ideal, log *Log) (*Result, error) {
	return analyze(ctx, req, lanes, runtime.GOMAXPROCS(0), log, nil)
}

// Replay folds lanes over a recorded pass: it decodes the log's blocks
// into the pass's in-flight blocks and feeds them to the same lane
// groups, without generating the trace or simulating it. Every replay
// runs the base-lane self-check against the cycles the recording
// simulated. Replay only reads log, so replays may share it.
func Replay(ctx context.Context, log *Log, lanes []depgraph.Ideal) (*Result, error) {
	if !log.Complete() {
		return nil, fmt.Errorf("window: replay of an incomplete block log")
	}
	return analyze(ctx, log.req, lanes, runtime.GOMAXPROCS(0), nil, log)
}

// inflight is how many block copies rotate between the simulator and
// the fold workers: one being filled while up to two wait or fold.
const inflight = 3

// block is one emitted window in flight; pending counts the consumers
// (lane groups and the recorder) that have yet to read it.
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
// the block to free once every consumer has read it. After an error
// (or cancellation, which Feed polls) it keeps draining without
// folding, so the producer never waits on a buffer that will not come
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

// record encodes each queued block into log, the recorder consumer.
func record(log *Log, in <-chan *block, free chan<- *block, wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range in {
		log.encode(&b.win)
		if b.pending.Add(-1) == 0 {
			free <- b
		}
	}
}

// pass is one windowed pass's fan-out: the lane groups, an optional
// recorder, and the block buffers rotating between the producer (the
// simulator or a log replay) and them.
type pass struct {
	groups []*laneGroup
	rec    chan *block // the recorder's queue; nil unless recording
	free   chan *block
	bufs   []*block
	wg     sync.WaitGroup
	n      int32 // consumers of each block
	blocks int   // blocks sent
}

// start launches the consumers.
func (p *pass) start(ctx context.Context, log *Log) {
	p.free = make(chan *block, inflight)
	p.bufs = make([]*block, inflight)
	for k := range p.bufs {
		p.bufs[k] = &block{}
		p.free <- p.bufs[k]
	}
	p.n = int32(len(p.groups))
	for _, g := range p.groups {
		p.wg.Add(1)
		go g.fold(ctx, p.free, &p.wg)
	}
	if log != nil {
		// Like a group's queue, the recorder's holds every block there is.
		p.rec = make(chan *block, inflight)
		p.n++
		p.wg.Add(1)
		go record(log, p.rec, p.free, &p.wg)
	}
}

// next takes a free block for the producer to fill.
func (p *pass) next(ctx context.Context) (*block, error) {
	select {
	case b := <-p.free:
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// send hands a filled block to every consumer. It never blocks: a
// consumer's queue holds only blocks taken from free, and there are
// inflight of them.
func (p *pass) send(b *block) {
	p.blocks++
	b.pending.Store(p.n)
	for _, g := range p.groups {
		g.in <- b
	}
	if p.rec != nil {
		p.rec <- b
	}
}

// stop closes the consumers' queues and waits for them to drain.
func (p *pass) stop() {
	for _, g := range p.groups {
		close(g.in)
	}
	if p.rec != nil {
		close(p.rec)
	}
	p.wg.Wait()
}

// analyzeIdeals is AnalyzeIdeals with the lanes split into
// min(procs, lanes) groups.
func analyzeIdeals(ctx context.Context, req Request, lanes []depgraph.Ideal, procs int) (*Result, error) {
	return analyze(ctx, req, lanes, procs, nil, nil)
}

// analyze runs one pass over min(procs, lanes) lane groups. The blocks
// come from simulating req's stream, recorded into rec when it is
// non-nil, or, when from is non-nil, from replaying that log.
func analyze(ctx context.Context, req Request, lanes []depgraph.Ideal, procs int, rec, from *Log) (*Result, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("window: no idealization lanes")
	}
	if req.WindowInsts < 1 {
		return nil, fmt.Errorf("window: window of %d instructions", req.WindowInsts)
	}
	// Fault hook: one per pass, which is a graph walk over the stream,
	// cancellable passes only, as EvalBatch.
	if ctx.Done() != nil {
		if err := faultinject.Hit(ctx, faultinject.GraphWalk); err != nil {
			return nil, err
		}
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

	var p pass
	p.groups = make([]*laneGroup, min(procs, len(evalLanes)))
	for k := range p.groups {
		lo, hi := k*len(evalLanes)/len(p.groups), (k+1)*len(evalLanes)/len(p.groups)
		we, err := depgraph.NewWindowEvalIdeals(req.Sim.Graph, evalLanes[lo:hi], req.TraceLen)
		if err != nil {
			return nil, err
		}
		p.groups[k] = &laneGroup{we: we, in: make(chan *block, inflight)}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var res *ooo.Result
	var peak int64
	var stages [4]int64
	var err error
	if from != nil {
		res, err = p.replay(ctx, from)
	} else {
		res, peak, stages, err = p.simulate(ctx, req, rec)
	}
	p.stop()
	if err != nil {
		return nil, err
	}

	// Every group's rings and every block buffer are resident for the
	// whole pass, on top of the producer's own storage.
	for _, b := range p.bufs {
		peak += b.win.Bytes()
	}
	times := make([]int64, 0, len(evalLanes))
	for _, g := range p.groups {
		if g.err != nil {
			return nil, g.err
		}
		times = append(times, g.we.ExecTimes()...)
		peak += g.we.RingBytes()
	}
	// The windowed exactness invariant, checked on every analysis:
	// the fold of the un-idealized lane must reproduce the simulated
	// cycle count exactly — the streaming analogue of the whole-graph
	// replay check the monolithic simulator runs. A replay checks
	// against the cycles its recording simulated.
	if times[baseAt] != res.Cycles {
		return nil, fmt.Errorf("window: base-lane fold %d != simulated %d cycles", times[baseAt], res.Cycles)
	}
	if rec != nil {
		rec.finish(res)
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
		Windows:   p.blocks,
		Insts:     p.groups[0].we.Insts(),
		PeakBytes: peak,
		Gen:       stages[0],
		GenStall:  stages[1],
		Sim:       stages[2],
		SimStall:  stages[3],
	}, nil
}

// simulate produces the pass's blocks by generating and simulating
// req's stream, recording them into rec unless it is nil, and returns
// the simulated result, the simulator's resident bytes (its rings and
// its own emission block) and the stage times (Result.Gen..SimStall).
func (p *pass) simulate(ctx context.Context, req Request, rec *Log) (*ooo.Result, int64, [4]int64, error) {
	var stages [4]int64
	if rec != nil {
		rec.reset(req)
	}
	w, err := workload.Cached(req.Bench, req.Seed)
	if err != nil {
		return nil, 0, stages, err
	}
	st, err := w.ExecuteRecycled(ctx, req.Warmup+req.TraceLen, req.Seed+1, 0)
	if err != nil {
		return nil, 0, stages, err
	}
	p.start(ctx, rec)
	var peakBlock int64
	var tm ooo.StreamTiming
	res, err := ooo.SimulateWindowed(ctx, st, req.Sim, ooo.Options{Warmup: req.Warmup, Timing: &tm}, req.WindowInsts,
		func(win *depgraph.Window) error {
			if b := win.Bytes(); b > peakBlock {
				peakBlock = b
			}
			b, err := p.next(ctx)
			if err != nil {
				return err
			}
			b.win.CopyFrom(win)
			p.send(b)
			return nil
		})
	if err != nil {
		return nil, 0, stages, err
	}
	stages = [4]int64{st.GenNS(), st.StallNS(), tm.SimNS, tm.WaitNS}
	return res, ooo.WindowedFootprint(&req.Sim.Graph, req.WindowInsts, req.TraceLen) + peakBlock, stages, nil
}

// replay produces the pass's blocks by decoding log straight into the
// in-flight block buffers, in the recording's block size, behind the
// window.replay fault point, and returns the recorded result.
func (p *pass) replay(ctx context.Context, log *Log) (*ooo.Result, error) {
	p.start(ctx, nil)
	r := logReader{l: log}
	size := int64(log.req.WindowInsts)
	for r.abs < log.insts {
		if err := faultinject.Hit(ctx, faultinject.WindowReplay); err != nil {
			return nil, err
		}
		b, err := p.next(ctx)
		if err != nil {
			return nil, err
		}
		r.decode(&b.win, int(min(size, log.insts-r.abs)))
		p.send(b)
	}
	return &ooo.Result{Cycles: log.cycles, Stats: log.stats}, nil
}
