package window

import (
	"context"
	"runtime"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// fullTimes is the whole-graph reference: monolithic trace build,
// monolithic simulation, and the scalar walk per lane, an oracle that
// shares no code with the fold the windowed pass runs.
func fullTimes(tb testing.TB, req Request, lanes []depgraph.Flags) ([]int64, *ooo.Result) {
	tb.Helper()
	w, err := workload.Cached(req.Bench, req.Seed)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := w.Execute(req.Warmup+req.TraceLen, req.Seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ooo.Simulate(tr, req.Sim, ooo.Options{KeepGraph: true, Warmup: req.Warmup})
	if err != nil {
		tb.Fatal(err)
	}
	times := make([]int64, len(lanes))
	for k, f := range lanes {
		times[k] = res.Graph.ExecTime(depgraph.Ideal{Global: f})
	}
	depgraph.ReleaseTimes(res.Times)
	res.Graph.Release()
	res.Times, res.Graph = nil, nil
	return times, res
}

// TestAnalyzeMatchesWholeGraph checks the package-level pipeline —
// including warmup handling and the implicit base lane — against the
// monolithic build, with and without an explicit base lane.
func TestAnalyzeMatchesWholeGraph(t *testing.T) {
	req := Request{
		Bench: "gcc", Seed: 7,
		TraceLen: 3000, Warmup: 400,
		WindowInsts: 512,
		Sim:         ooo.DefaultConfig(),
	}
	for _, lanes := range [][]depgraph.Flags{
		{0, depgraph.IdealDL1, depgraph.IdealDMiss | depgraph.IdealDL1, depgraph.AllFlags},
		{depgraph.IdealWindow, depgraph.IdealBW}, // no base lane: self-check folds one internally
	} {
		want, full := fullTimes(t, req, lanes)
		res, err := Analyze(context.Background(), req, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != full.Cycles || res.Stats != full.Stats {
			t.Fatalf("cycles/stats: windowed %d/%+v, full %d/%+v", res.Cycles, res.Stats, full.Cycles, full.Stats)
		}
		if len(res.Times) != len(lanes) {
			t.Fatalf("got %d times for %d lanes", len(res.Times), len(lanes))
		}
		for k := range lanes {
			if res.Times[k] != want[k] {
				t.Fatalf("lane %v: windowed %d, whole-graph %d", lanes[k], res.Times[k], want[k])
			}
		}
		if wantW := (req.TraceLen + req.WindowInsts - 1) / req.WindowInsts; res.Windows != wantW {
			t.Fatalf("windows %d, want %d", res.Windows, wantW)
		}
		if res.Insts != int64(req.TraceLen) {
			t.Fatalf("insts %d, want %d", res.Insts, req.TraceLen)
		}
	}
}

// fullTimesIdeals is fullTimes for parametric lanes: one monolithic
// build and the scalar walk of each Ideal.
func fullTimesIdeals(tb testing.TB, req Request, ids []depgraph.Ideal) []int64 {
	tb.Helper()
	w, err := workload.Cached(req.Bench, req.Seed)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := w.Execute(req.Warmup+req.TraceLen, req.Seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ooo.Simulate(tr, req.Sim, ooo.Options{KeepGraph: true, Warmup: req.Warmup})
	if err != nil {
		tb.Fatal(err)
	}
	times := make([]int64, len(ids))
	for k, id := range ids {
		times[k] = res.Graph.ExecTime(id)
	}
	depgraph.ReleaseTimes(res.Times)
	res.Graph.Release()
	return times
}

// TestAnalyzeIdealsParametricMatchesWholeGraph is the windowed-fold
// property test over parametric idealizations: for random α grids the
// streaming fold must be bit-identical to the whole-graph scalar walk
// at every grid point — the invariant that lets windowed sessions
// answer sensitivity queries exactly.
func TestAnalyzeIdealsParametricMatchesWholeGraph(t *testing.T) {
	req := Request{
		Bench: "mcf", Seed: 5,
		TraceLen: 2500, Warmup: 300,
		WindowInsts: 512,
		Sim:         ooo.DefaultConfig(),
	}
	// A deterministic xorshift stream stands in for math/rand so the
	// grid is reproducible from the failure message alone.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	cats := []depgraph.Flags{
		depgraph.IdealDL1,
		depgraph.IdealDMiss | depgraph.IdealICache,
		depgraph.IdealBMisp,
		depgraph.IdealWindow,
		depgraph.AllFlags,
	}
	for trial := 0; trial < 4; trial++ {
		ids := []depgraph.Ideal{{}} // explicit base lane
		for _, f := range cats {
			a := depgraph.Alpha(next() % (uint64(depgraph.AlphaOne) + 1))
			ids = append(ids, depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, a)})
		}
		want := fullTimesIdeals(t, req, ids)
		res, err := AnalyzeIdeals(context.Background(), req, ids)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ids {
			if res.Times[k] != want[k] {
				t.Fatalf("trial %d lane %d (flags %v scale %v): windowed %d, whole-graph %d",
					trial, k, ids[k].Global, ids[k].Scale, res.Times[k], want[k])
			}
		}
		if res.Times[0] != res.Cycles {
			t.Fatalf("trial %d: base lane %d != simulated %d", trial, res.Times[0], res.Cycles)
		}
	}
}

// TestWindowSmallerThanCarryDepth pins the edge case where the
// emission block is far smaller than the evaluator's carry depth: the
// carry rings span blocks, so exactness must not depend on a window
// covering the clamp horizon. A parametric lane rides along to cover
// an interior α too.
func TestWindowSmallerThanCarryDepth(t *testing.T) {
	req := Request{
		Bench: "gzip", Seed: 9,
		TraceLen: 1200, Warmup: 200,
		WindowInsts: 7, // carry depth for the Table 6 machine is >= its window
		Sim:         ooo.DefaultConfig(),
	}
	if cd := req.Sim.Graph.CarryDepth(); req.WindowInsts >= cd {
		t.Fatalf("test premise broken: window %d not below carry depth %d", req.WindowInsts, cd)
	}
	ids := []depgraph.Ideal{
		{},
		{Global: depgraph.IdealDMiss},
		{Global: depgraph.IdealWindow, Scale: depgraph.ScaleUniform(depgraph.IdealWindow, depgraph.AlphaOf(0.5))},
	}
	want := fullTimesIdeals(t, req, ids)
	res, err := AnalyzeIdeals(context.Background(), req, ids)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ids {
		if res.Times[k] != want[k] {
			t.Fatalf("lane %d: windowed %d, whole-graph %d", k, res.Times[k], want[k])
		}
	}
	if wantW := (req.TraceLen + req.WindowInsts - 1) / req.WindowInsts; res.Windows != wantW {
		t.Fatalf("windows %d, want %d", res.Windows, wantW)
	}

	// ValidateWindowed's precondition is about edge reach, not block
	// size: the boundary configuration (WakeupExtra exactly at the
	// dispatch-to-ready + complete-to-commit ceiling) is accepted, one
	// past it is refused.
	cfg := req.Sim.Graph
	cfg.WakeupExtra = cfg.DispatchToReady + cfg.CompleteToCommit
	if err := cfg.ValidateWindowed(); err != nil {
		t.Fatalf("boundary WakeupExtra rejected: %v", err)
	}
	cfg.WakeupExtra++
	if err := cfg.ValidateWindowed(); err == nil {
		t.Fatal("WakeupExtra past the windowed ceiling accepted")
	}
}

// TestHugeWindowBoundedByTrace: a pass sizes the simulator ring and
// every lane group's fold rings by the instructions it folds, not by
// the machine's window. At a window of 1<<40 (a carry depth of 2.2e13
// instructions) a 2,000-instruction pass folds exactly what a window as
// long as the stream folds — no CD edge reaches past the stream start
// either way — and holds exactly as many bytes.
func TestHugeWindowBoundedByTrace(t *testing.T) {
	req := Request{Bench: "gcc", Seed: 4, TraceLen: 2000, Warmup: 1000, WindowInsts: 512}
	req.Sim = ooo.DefaultConfig().WithWindow(req.Warmup + req.TraceLen)
	huge := req
	huge.Sim = req.Sim.WithWindow(1 << 40)
	ids := mixedLanes(17)
	want := fullTimesIdeals(t, req, ids)
	ref, err := analyzeIdeals(context.Background(), req, ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analyzeIdeals(context.Background(), huge, ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ids {
		if res.Times[k] != want[k] || ref.Times[k] != want[k] {
			t.Fatalf("lane %d: window 1<<40 %d, stream-long window %d, whole-graph %d", k, res.Times[k], ref.Times[k], want[k])
		}
	}
	if res.PeakBytes != ref.PeakBytes {
		t.Fatalf("peak bytes %d at window 1<<40, %d at a stream-long window", res.PeakBytes, ref.PeakBytes)
	}
}

// TestAnalyzeValidation pins the request contract.
func TestAnalyzeValidation(t *testing.T) {
	base := Request{Bench: "gcc", Seed: 1, TraceLen: 500, WindowInsts: 128, Sim: ooo.DefaultConfig()}
	lanes := []depgraph.Flags{0}
	if _, err := Analyze(context.Background(), base, nil); err == nil {
		t.Fatal("want error for no lanes")
	}
	bad := base
	bad.WindowInsts = 0
	if _, err := Analyze(context.Background(), bad, lanes); err == nil {
		t.Fatal("want error for zero window")
	}
	bad = base
	bad.Bench = "no-such-bench"
	if _, err := Analyze(context.Background(), bad, lanes); err == nil {
		t.Fatal("want error for unknown bench")
	}
	bad = base
	bad.Sim.Graph.WakeupExtra = bad.Sim.Graph.DispatchToReady + bad.Sim.Graph.CompleteToCommit + 1
	if _, err := Analyze(context.Background(), bad, lanes); err == nil {
		t.Fatal("want error for windowed-exactness precondition")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, base, lanes); err == nil {
		t.Fatal("want error for canceled context")
	}
}

// TestLongTraceBoundedMemory is the long-trace acceptance gate: a
// 10-million-instruction trace analyzes through the windowed pipeline
// with peak graph-analysis storage bounded by the window budget —
// identical, byte for byte, to the footprint of a 50x shorter trace
// at the same window size, and orders of magnitude below what a
// whole-trace graph would hold resident.
func TestLongTraceBoundedMemory(t *testing.T) {
	lanes := make([]depgraph.Flags, 0, 9)
	lanes = append(lanes, 0)
	for b := 0; b < depgraph.NumFlags; b++ {
		lanes = append(lanes, 1<<b)
	}
	req := Request{
		Bench: "gcc", Seed: 3,
		TraceLen:    10_000_000,
		WindowInsts: 4096,
		Sim:         ooo.DefaultConfig(),
	}
	if testing.Short() {
		req.TraceLen = 1_000_000
	}
	short := req
	short.TraceLen = req.TraceLen / 50

	shortRes, err := Analyze(context.Background(), short, lanes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(context.Background(), req, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != int64(req.TraceLen) {
		t.Fatalf("folded %d of %d instructions", res.Insts, req.TraceLen)
	}
	// Trace-length independence: the long run holds exactly the bytes
	// the short run held.
	if res.PeakBytes != shortRes.PeakBytes {
		t.Fatalf("peak bytes grew with trace length: %d (10M) vs %d (short)", res.PeakBytes, shortRes.PeakBytes)
	}
	// Absolute budget: rings + one window block for this configuration
	// fit in single-digit megabytes; a whole-trace graph would be
	// ~96 bytes per instruction (~1 GB at 10M instructions).
	const budget = 8 << 20
	if res.PeakBytes > budget {
		t.Fatalf("peak bytes %d exceed window budget %d", res.PeakBytes, budget)
	}
	if wholeGraph := int64(req.TraceLen) * 96; res.PeakBytes*20 > wholeGraph {
		t.Fatalf("peak bytes %d not materially below whole-graph %d", res.PeakBytes, wholeGraph)
	}
	// The self-checked base lane matched the simulator inside Analyze;
	// spot-check lane ordering survived the pipeline.
	if res.Times[0] != res.Cycles {
		t.Fatalf("base lane %d != cycles %d", res.Times[0], res.Cycles)
	}
	for _, tm := range res.Times[1:] {
		if tm > res.Times[0] {
			t.Fatalf("idealized lane slower than real machine: %v vs %d", res.Times, res.Cycles)
		}
	}
}

// mixedLanes draws n deterministic lanes that mix binary and scaled
// idealizations. Lane sets of 17 and more carry the base lane in the
// middle, so it lands inside a lane group rather than at its edge;
// smaller sets leave it out, so the self-check lane is prepended.
func mixedLanes(n int) []depgraph.Ideal {
	rng := uint64(0x2545f4914f6cdd1d) + uint64(n)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	ids := make([]depgraph.Ideal, n)
	for k := range ids {
		f := depgraph.Flags(next()) & depgraph.AllFlags
		if f == 0 {
			f = depgraph.IdealWindow
		}
		ids[k].Global = f
		if k%2 == 1 {
			ids[k].Scale = depgraph.ScaleUniform(f, depgraph.Alpha(next()%uint64(depgraph.AlphaOne+1)))
		}
	}
	if n >= 17 {
		ids[n/2] = depgraph.Ideal{}
	}
	return ids
}

// TestAnalyzeIdealsGroupCountInvariant: splitting the lanes across
// fold workers never changes an answer. With one, two and three lane
// groups, and with more groups asked for than there are lanes, the
// pipeline returns identical times, cycles, instruction and window
// counts and peak bytes, and every lane matches the whole-graph walk.
func TestAnalyzeIdealsGroupCountInvariant(t *testing.T) {
	ctx := context.Background()
	req := Request{
		Bench: "parser", Seed: 4,
		TraceLen: 1500, Warmup: 200,
		Sim: ooo.DefaultConfig(),
	}
	for _, n := range []int{1, 2, 17, 256} {
		ids := mixedLanes(n)
		want := fullTimesIdeals(t, req, ids)
		for _, win := range []int{1, 63, 4096} {
			req.WindowInsts = win
			var ref *Result
			for _, procs := range []int{1, 2, 3, n + 3} {
				res, err := analyzeIdeals(ctx, req, ids, procs)
				if err != nil {
					t.Fatalf("%d lanes, window %d, %d procs: %v", n, win, procs, err)
				}
				if ref == nil {
					ref = res
					for k := range ids {
						if res.Times[k] != want[k] {
							t.Fatalf("%d lanes, window %d: lane %d windowed %d, whole-graph %d", n, win, k, res.Times[k], want[k])
						}
					}
					continue
				}
				if res.Cycles != ref.Cycles || res.Insts != ref.Insts || res.Windows != ref.Windows || res.PeakBytes != ref.PeakBytes {
					t.Fatalf("%d lanes, window %d, %d procs: cycles/insts/windows/peak %d/%d/%d/%d, one group %d/%d/%d/%d",
						n, win, procs, res.Cycles, res.Insts, res.Windows, res.PeakBytes, ref.Cycles, ref.Insts, ref.Windows, ref.PeakBytes)
				}
				for k := range ids {
					if res.Times[k] != ref.Times[k] {
						t.Fatalf("%d lanes, window %d, %d procs: lane %d time %d, one group %d", n, win, procs, k, res.Times[k], ref.Times[k])
					}
				}
			}
		}
	}
}

// TestPeakBytesCountsEveryBuffer pins the footprint accounting of the
// pipelined fold: the simulator's rings and block, every block copy in
// flight, and the carry rings of every lane group, whatever the group
// count.
func TestPeakBytesCountsEveryBuffer(t *testing.T) {
	req := Request{
		Bench: "gzip", Seed: 2,
		TraceLen: 5000, Warmup: 100,
		WindowInsts: 512,
		Sim:         ooo.DefaultConfig(),
	}
	ids := mixedLanes(17)
	var blk depgraph.Window
	blk.Resize(0, req.WindowInsts)
	we, err := depgraph.NewWindowEvalIdeals(req.Sim.Graph, ids, req.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	want := ooo.WindowedFootprint(&req.Sim.Graph, req.WindowInsts, req.TraceLen) + (inflight+1)*blk.Bytes() + we.RingBytes()
	for _, procs := range []int{1, 3} {
		res, err := analyzeIdeals(context.Background(), req, ids, procs)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakBytes != want {
			t.Fatalf("%d procs: peak bytes %d, want %d", procs, res.PeakBytes, want)
		}
	}
}

// passAlloc returns the bytes one windowed pass over req allocates,
// by runtime.MemStats.TotalAlloc: every heap allocation, not just the
// graph storage PeakBytes accounts for.
func passAlloc(t *testing.T, req Request, lanes []depgraph.Flags) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Analyze(context.Background(), req, lanes); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWindowedPassAllocationIndependentOfLength is the real-memory
// gate behind the bounded-memory claim: a windowed pass allocates the
// same few buffers whatever the trace length — recycled trace
// segments, ring-scheduled functional units, fixed TLB arrays — so a
// 10x longer trace may not cost more than a little map growth for the
// extra data lines and store granules it touches.
func TestWindowedPassAllocationIndependentOfLength(t *testing.T) {
	const slack = 4 << 20
	lanes := []depgraph.Flags{0, depgraph.IdealDMiss}
	for _, bench := range []string{"gcc", "mcf"} {
		short := Request{Bench: bench, Seed: 8, TraceLen: 100_000, Warmup: 1000, WindowInsts: 4096, Sim: ooo.DefaultConfig()}
		long := short
		long.TraceLen = 1_000_000
		passAlloc(t, short, lanes) // warm the workload cache and the pools
		s, l := passAlloc(t, short, lanes), passAlloc(t, long, lanes)
		t.Logf("%s: %.1f MiB at %d insts, %.1f MiB at %d", bench, float64(s)/(1<<20), short.TraceLen, float64(l)/(1<<20), long.TraceLen)
		if l > s+slack {
			t.Errorf("%s: a windowed pass allocated %d bytes at %d instructions and %d at %d: more than %d bytes of growth",
				bench, s, short.TraceLen, l, long.TraceLen, slack)
		}
	}
}
