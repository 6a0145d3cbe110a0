package cost

import (
	"context"
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"icost/internal/cache"
	"icost/internal/depgraph"
	"icost/internal/isa"
	"icost/internal/ooo"
	"icost/internal/rng"
	"icost/internal/workload"
)

// tinyCfg: no pipeline constants, wide machine, big window — so
// hand-built examples behave like pure dataflow.
func tinyCfg() depgraph.Config {
	return depgraph.Config{
		FetchBW: 64, CommitBW: 64,
		Window: 256, WindowIdealFactor: 20,
		DispatchToReady: 0, CompleteToCommit: 0,
		BranchRecovery: 8, WakeupExtra: 0,
		DL1Latency: 2, L2Latency: 12, MemLatency: 100, TLBMissLatency: 30,
	}
}

// parallelMisses builds the paper's Section 2.2 motivating example:
// two completely parallel cache misses. Each alone has cost zero;
// together they have large cost; the icost is large and positive.
func parallelMisses() *depgraph.Graph {
	g := depgraph.New(tinyCfg(), 2)
	g.Info[0] = depgraph.InstInfo{Op: isa.OpLoad, SIdx: 0, DataLevel: cache.LevelMem}
	g.Info[1] = depgraph.InstInfo{Op: isa.OpLoad, SIdx: 1, DataLevel: cache.LevelMem}
	return g
}

func TestParallelInteraction(t *testing.T) {
	a := New(parallelMisses())
	m0 := EventSet(a.Graph(), depgraph.IdealDMiss, func(i int) bool { return i == 0 })
	m1 := EventSet(a.Graph(), depgraph.IdealDMiss, func(i int) bool { return i == 1 })

	if c := a.CostSet(m0); c != 0 {
		t.Fatalf("cost(miss0) = %d, want 0 (fully parallel)", c)
	}
	if c := a.CostSet(m1); c != 0 {
		t.Fatalf("cost(miss1) = %d, want 0", c)
	}
	ic := a.ICostSets(m0, m1)
	if ic != 112 { // L2(12)+Mem(100) removed only when both idealized
		t.Fatalf("icost = %d, want 112", ic)
	}
	if Classify(ic, 0) != Parallel {
		t.Fatal("not classified parallel")
	}
}

// serialMisses builds the paper's serial-interaction example: two
// *dependent* cache misses in parallel with a long chain of ALU work.
// Optimizing either miss alone captures the shared slack; optimizing
// both gains no more, so the icost is negative.
func serialMisses() *depgraph.Graph {
	// 2 dependent mem-missing loads (114 cycles each, 228 serial)
	// alongside an independent 120-cycle FP-divide chain (10 divides
	// x 12 cycles) — the paper's "two dependent misses in parallel
	// with ALU work" proportions: either miss alone covers the chain.
	const chain = 10
	g := depgraph.New(tinyCfg(), 2+chain)
	g.Info[0] = depgraph.InstInfo{Op: isa.OpLoad, SIdx: 0, DataLevel: cache.LevelMem}
	g.Info[1] = depgraph.InstInfo{Op: isa.OpLoad, SIdx: 1, DataLevel: cache.LevelMem}
	g.Prod1[1] = 0 // second miss depends on the first
	for i := 0; i < chain; i++ {
		g.Info[2+i] = depgraph.InstInfo{Op: isa.OpFloatDiv, SIdx: int32(2 + i)}
		if i > 0 {
			g.Prod1[2+i] = int32(2 + i - 1)
		}
	}
	return g
}

func TestSerialInteraction(t *testing.T) {
	g := serialMisses()
	a := New(g)
	m0 := EventSet(g, depgraph.IdealDMiss, func(i int) bool { return i == 0 })
	m1 := EventSet(g, depgraph.IdealDMiss, func(i int) bool { return i == 1 })

	c0, c1 := a.CostSet(m0), a.CostSet(m1)
	both := a.ICostSets(m0, m1)
	if c0 <= 0 || c1 <= 0 {
		t.Fatalf("individual costs %d, %d should be positive", c0, c1)
	}
	if both >= 0 {
		t.Fatalf("icost = %d, want negative (serial interaction)", both)
	}
	if Classify(both, 0) != Serial {
		t.Fatal("not classified serial")
	}
}

func TestIndependentEvents(t *testing.T) {
	// Two misses separated by an enormous serial ALU chain are
	// independent: each is fully exposed, no shared or parallel work.
	const chain = 50
	g := depgraph.New(tinyCfg(), 2*chain+2)
	mk := func(i int, info depgraph.InstInfo) { g.Info[i] = info }
	mk(0, depgraph.InstInfo{Op: isa.OpLoad, DataLevel: cache.LevelMem})
	for i := 1; i <= chain; i++ {
		mk(i, depgraph.InstInfo{Op: isa.OpIntShort})
		g.Prod1[i] = int32(i - 1)
	}
	mk(chain+1, depgraph.InstInfo{Op: isa.OpLoad, DataLevel: cache.LevelMem})
	g.Prod1[chain+1] = int32(chain)
	for i := chain + 2; i < 2*chain+2; i++ {
		mk(i, depgraph.InstInfo{Op: isa.OpIntShort})
		g.Prod1[i] = int32(i - 1)
	}
	a := New(g)
	m0 := EventSet(g, depgraph.IdealDMiss, func(i int) bool { return i == 0 })
	m1 := EventSet(g, depgraph.IdealDMiss, func(i int) bool { return i == chain+1 })
	ic := a.ICostSets(m0, m1)
	if ic != 0 {
		t.Fatalf("icost = %d, want 0 (independent)", ic)
	}
	if Classify(ic, 0) != Independent {
		t.Fatal("not classified independent")
	}
}

func TestICostPairwiseDefinition(t *testing.T) {
	// icost(a,b) must equal cost(a|b) - cost(a) - cost(b) exactly.
	g := benchGraph(t, "gcc", 8000)
	a := New(g)
	x, y := depgraph.IdealDL1, depgraph.IdealWindow
	ic := a.MustICost(x, y)
	want := a.Cost(x|y) - a.Cost(x) - a.Cost(y)
	if ic != want {
		t.Fatalf("icost %d != definition %d", ic, want)
	}
}

func TestICostRecursiveDefinition(t *testing.T) {
	// For three sets: cost(U) = sum of icosts of all non-empty
	// subsets of U (the recursive definition re-arranged).
	g := benchGraph(t, "parser", 8000)
	a := New(g)
	s := []depgraph.Flags{depgraph.IdealDL1, depgraph.IdealBMisp, depgraph.IdealDMiss}
	var sum int64
	for m := 1; m < 8; m++ {
		var sub []depgraph.Flags
		for j := 0; j < 3; j++ {
			if m&(1<<j) != 0 {
				sub = append(sub, s[j])
			}
		}
		sum += a.MustICost(sub...)
	}
	if got := a.Cost(s[0] | s[1] | s[2]); got != sum {
		t.Fatalf("cost(U)=%d != sum of subset icosts %d", got, sum)
	}
}

func TestPowerSetAccountsForAllTime(t *testing.T) {
	// With U = all eight categories: sum over every non-empty subset
	// of icost equals cost(U); and t(U) + cost(U) = t. This is the
	// paper's "completely accounting for execution time" identity.
	g := benchGraph(t, "gzip", 6000)
	a := New(g)
	flags := make([]depgraph.Flags, depgraph.NumFlags)
	for b := range flags {
		flags[b] = 1 << b
	}
	var sum int64
	for m := 1; m < 1<<depgraph.NumFlags; m++ {
		var sub []depgraph.Flags
		for j := 0; j < depgraph.NumFlags; j++ {
			if m&(1<<j) != 0 {
				sub = append(sub, flags[j])
			}
		}
		ic, err := a.ICost(sub...)
		if err != nil {
			t.Fatal(err)
		}
		sum += ic
	}
	if got := a.Cost(depgraph.AllFlags); got != sum {
		t.Fatalf("power-set identity violated: cost(all)=%d, sum=%d", got, sum)
	}
}

func TestICostRejectsOverlap(t *testing.T) {
	g := benchGraph(t, "gzip", 2000)
	a := New(g)
	if _, err := a.ICost(depgraph.IdealDL1, depgraph.IdealDL1|depgraph.IdealWindow); err == nil {
		t.Fatal("overlapping sets accepted")
	}
	if _, err := a.ICost(depgraph.Flags(0)); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestICostEmptyAndSingle(t *testing.T) {
	g := benchGraph(t, "gzip", 2000)
	a := New(g)
	if v, err := a.ICost(); err != nil || v != 0 {
		t.Fatalf("icost() = %d, %v", v, err)
	}
	single, err := a.ICost(depgraph.IdealDMiss)
	if err != nil {
		t.Fatal(err)
	}
	if single != a.Cost(depgraph.IdealDMiss) {
		t.Fatal("single-set icost != cost")
	}
}

func TestStaticLoadMissesSet(t *testing.T) {
	g := benchGraph(t, "mcf", 20000)
	a := New(g)
	// Find the static load with the most dynamic misses.
	counts := map[int32]int{}
	for i := 0; i < g.Len(); i++ {
		if g.Info[i].Op == isa.OpLoad && g.Info[i].DataLevel != cache.LevelL1 {
			counts[g.Info[i].SIdx]++
		}
	}
	var best int32 = -1
	bestN := 0
	for s, c := range counts {
		if c > bestN {
			best, bestN = s, c
		}
	}
	if best < 0 {
		t.Fatal("no missing loads in mcf")
	}
	set := StaticLoadMisses(g, best)
	c := a.CostSet(set)
	if c < 0 {
		t.Fatalf("negative cost %d for static load misses", c)
	}
	all := a.Cost(depgraph.IdealDMiss)
	if c > all {
		t.Fatalf("one static load's cost %d exceeds all-miss cost %d", c, all)
	}
	if bestN > 50 && c == 0 {
		t.Fatalf("hottest missing load (%d misses) has zero cost", bestN)
	}
}

func TestClassify(t *testing.T) {
	if Classify(5, 10) != Independent || Classify(-5, 10) != Independent {
		t.Fatal("tolerance band")
	}
	if Classify(11, 10) != Parallel || Classify(-11, 10) != Serial {
		t.Fatal("sign classification")
	}
	if Serial.String() != "serial" || Parallel.String() != "parallel" ||
		Independent.String() != "independent" {
		t.Fatal("names")
	}
}

func TestQuickMobiusMatchesPairDefinition(t *testing.T) {
	g := benchGraph(t, "twolf", 4000)
	a := New(g)
	f := func(x, y uint8) bool {
		fx := depgraph.Flags(1) << (x % depgraph.NumFlags)
		fy := depgraph.Flags(1) << (y % depgraph.NumFlags)
		if fx == fy {
			return true
		}
		ic, err := a.ICost(fx, fy)
		if err != nil {
			return false
		}
		return ic == a.Cost(fx|fy)-a.Cost(fx)-a.Cost(fy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCostNonNegativeAndBounded(t *testing.T) {
	g := benchGraph(t, "vpr", 4000)
	a := New(g)
	f := func(raw uint16) bool {
		fl := depgraph.Flags(raw) & depgraph.AllFlags
		c := a.Cost(fl)
		return c >= 0 && c <= a.BaseTime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoization(t *testing.T) {
	g := benchGraph(t, "gzip", 3000)
	a := New(g)
	t1 := a.ExecTime(depgraph.IdealDMiss)
	t2 := a.ExecTime(depgraph.IdealDMiss)
	if t1 != t2 {
		t.Fatal("memoized value differs")
	}
	if len(a.memo) != 1 { // dmiss only: base is lazy
		t.Fatalf("memo size %d", len(a.memo))
	}
	if a.BaseTime() != a.BaseTime() {
		t.Fatal("base time not stable")
	}
	if len(a.memo) != 2 { // base + dmiss
		t.Fatalf("memo size %d after BaseTime", len(a.memo))
	}
}

// benchGraph simulates a benchmark and returns its graph.
func benchGraph(t testing.TB, name string, n int) *depgraph.Graph {
	t.Helper()
	tr, err := workload.Load(name, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ooo.Run(tr, ooo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

// Guard against accidental dependence of Möbius parity helper on
// platform: quick sanity of bits.OnesCount usage.
func TestMobiusParity(t *testing.T) {
	if bits.OnesCount(uint(0b1011)) != 3 {
		t.Fatal("OnesCount broken?")
	}
	_ = rng.New(1) // keep rng import for future tests
}

func TestAnalyzerConcurrentUse(t *testing.T) {
	g := benchGraph(t, "gzip", 4000)
	a := New(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := depgraph.Flags(1); f < 64; f++ {
				if a.Cost(f) < 0 {
					t.Error("negative cost")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// flagEval is a non-graph backend that times every global
// idealization by fn of its flags, counting the idealizations it is
// asked for.
func flagEval(calls *atomic.Int64, fn func(depgraph.Flags) int64) Eval {
	return func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
		out := make([]int64, len(ids))
		for i, id := range ids {
			if calls != nil {
				calls.Add(1)
			}
			out[i] = fn(id.Global)
		}
		return out, nil
	}
}

// TestSingleFlight: concurrent memo misses for the same flags must
// share one evaluation — the leader runs eval, everyone else waits on
// its flight and returns the same value.
func TestSingleFlight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	a := NewFromEval(flagEval(nil, func(f depgraph.Flags) int64 {
		if f == depgraph.IdealDMiss {
			calls.Add(1)
			<-release // hold the leader so waiters pile onto the flight
		}
		return int64(f) * 10
	}), nil)
	const G = 8
	var wg sync.WaitGroup
	results := make([]int64, G)
	wg.Add(G)
	for i := 0; i < G; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = a.ExecTime(depgraph.IdealDMiss)
		}(i)
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond) // leader entered eval
	}
	time.Sleep(10 * time.Millisecond) // let the rest reach the flight
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("eval ran %d times for one flag", n)
	}
	want := int64(depgraph.IdealDMiss) * 10
	for i, r := range results {
		if r != want {
			t.Fatalf("goroutine %d got %d, want %d", i, r, want)
		}
	}
}

// TestICostSetsMatchesBruteForce: the batched per-instruction path of
// ICostSets must agree with a hand-rolled Möbius sum over direct
// scalar graph evaluations.
func TestICostSetsMatchesBruteForce(t *testing.T) {
	g := benchGraph(t, "gzip", 2500)
	a := New(g)
	sets := []depgraph.Ideal{
		EventSet(g, depgraph.IdealDMiss, func(i int) bool { return g.Info[i].Op == isa.OpLoad && i%2 == 0 }),
		{Global: depgraph.IdealWindow},
		EventSet(g, depgraph.IdealBMisp, func(i int) bool { return i%3 == 0 }),
	}
	got := a.ICostSets(sets...)

	n := g.Len()
	base := g.ExecTime(depgraph.Ideal{})
	var want int64
	for m := 0; m < 1<<len(sets); m++ {
		var u depgraph.Ideal
		u.PerInst = make([]depgraph.Flags, n)
		for j, s := range sets {
			if m&(1<<j) == 0 {
				continue
			}
			u.Global |= s.Global
			for i, f := range s.PerInst {
				u.PerInst[i] |= f
			}
		}
		term := base - g.ExecTime(u)
		if (len(sets)-bits.OnesCount(uint(m)))%2 == 1 {
			term = -term
		}
		want += term
	}
	if got != want {
		t.Fatalf("ICostSets = %d, brute force = %d", got, want)
	}
}

// TestPrewarmDedup: PrewarmCtx collapses duplicates and re-listing
// memoized masks issues no further evaluations.
func TestPrewarmDedup(t *testing.T) {
	var calls atomic.Int64
	a := NewFromEval(flagEval(&calls, func(f depgraph.Flags) int64 { return 1000 - int64(f) }), nil)
	masks := []depgraph.Flags{
		depgraph.IdealDL1, depgraph.IdealDMiss,
		depgraph.IdealDL1, depgraph.IdealDL1 | depgraph.IdealDMiss,
	}
	if err := a.PrewarmCtx(context.Background(), masks); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("prewarm ran %d evals, want 3", n)
	}
	if err := a.PrewarmCtx(context.Background(), masks); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("re-prewarm ran %d extra evals", n-3)
	}
}

// TestBatchFuncSeedsAndBatchesMisses: a non-graph analyzer answers
// its seeded entries without evaluating them, sends a prewarm's misses
// to the backend in one call and a scalar miss as a batch of one,
// memoizes nothing from a failed batch, and reports every entry it
// holds through Known.
func TestBatchFuncSeedsAndBatchesMisses(t *testing.T) {
	var batches [][]depgraph.Flags
	errFail := errors.New("batch failed")
	fail := false
	a := NewFromEval(func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
		flags := make([]depgraph.Flags, len(ids))
		for i, id := range ids {
			flags[i] = id.Global
		}
		batches = append(batches, flags)
		if fail {
			return nil, errFail
		}
		out := make([]int64, len(flags))
		for i, f := range flags {
			out[i] = 1000 - int64(f)
		}
		return out, nil
	}, map[depgraph.Flags]int64{0: 1000, depgraph.IdealDL1: 7})

	if got := a.Cost(depgraph.IdealDL1); got != 993 || len(batches) != 0 {
		t.Fatalf("seeded cost = %d after %d batches, want 993 after none", got, len(batches))
	}
	masks := []depgraph.Flags{depgraph.IdealDL1, depgraph.IdealDMiss, depgraph.IdealWindow, depgraph.IdealDMiss}
	if err := a.PrewarmCtx(context.Background(), masks); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("prewarm issued batches %v, want one of the two misses", batches)
	}
	if got := a.ExecTime(depgraph.IdealBMisp); got != 1000-int64(depgraph.IdealBMisp) {
		t.Fatalf("scalar miss = %d", got)
	}
	if len(batches) != 2 || len(batches[1]) != 1 {
		t.Fatalf("scalar miss issued batches %v, want a batch of one", batches)
	}

	fail = true
	if _, err := a.ExecTimeCtx(context.Background(), depgraph.IdealBW); !errors.Is(err, errFail) {
		t.Fatalf("failed batch: %v", err)
	}
	known := a.Known()
	if len(known) != 5 {
		t.Fatalf("Known holds %d entries, want 5: %v", len(known), known)
	}
	if _, ok := known[depgraph.IdealBW]; ok {
		t.Fatal("a failed batch was memoized")
	}
	known[depgraph.IdealBW] = 1
	if _, ok := a.Known()[depgraph.IdealBW]; ok {
		t.Fatal("Known returned the memo itself, not a copy")
	}
}

// TestICostSetsScaledThroughBatch: α-scaled global event sets read
// through the one memo in one batch — no binary flags are evaluated on
// the side, so the memo's binary entries hold only the base — and the
// value is the brute-force Möbius sum over direct graph walks.
func TestICostSetsScaledThroughBatch(t *testing.T) {
	g := benchGraph(t, "gzip", 2500)
	a := New(g)
	half := depgraph.AlphaOf(0.5)
	sets := []depgraph.Ideal{
		{Global: depgraph.IdealDL1, Scale: depgraph.ScaleUniform(depgraph.IdealDL1, half)},
		{Global: depgraph.IdealDMiss, Scale: depgraph.ScaleUniform(depgraph.IdealDMiss, half)},
	}
	var lanes []int
	walk := a.eval
	a.eval = func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
		lanes = append(lanes, len(ids))
		return walk(ctx, ids)
	}
	got := a.ICostSets(sets...)
	if len(lanes) != 1 || lanes[0] != 4 {
		t.Fatalf("backend calls %v, want one of 4 lanes", lanes)
	}
	known := a.Known()
	if len(known) != 1 || known[0] != g.ExecTime(depgraph.Ideal{}) {
		t.Fatalf("binary memo entries %v, want the base alone", known)
	}
	both := depgraph.Ideal{Global: depgraph.IdealDL1 | depgraph.IdealDMiss,
		Scale: depgraph.ScaleUniform(depgraph.IdealDL1|depgraph.IdealDMiss, half)}
	base := g.ExecTime(depgraph.Ideal{})
	want := (base - g.ExecTime(both)) - (base - g.ExecTime(sets[0])) - (base - g.ExecTime(sets[1]))
	if got != want {
		t.Fatalf("ICostSets = %d, brute force = %d", got, want)
	}
}

// TestMemoConcurrentIdeals: eight goroutines make overlapping scalar,
// prewarm, icost and sensitivity reads on one analyzer. Their
// canonical idealizations overlap — α=0 is the binary flags, α=1 the
// base — and each reaches the backend at most once, however the calls
// interleave; every answer matches a direct graph walk.
func TestMemoConcurrentIdeals(t *testing.T) {
	g := benchGraph(t, "gzip", 1500)
	var mu sync.Mutex
	seen := map[memoKey]int{}
	a := NewFromEval(func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
		mu.Lock()
		for _, id := range ids {
			seen[globalKey(id.Global, id.Scale)]++
		}
		mu.Unlock()
		return g.EvalBatch(ctx, ids)
	}, nil)
	ctx := context.Background()
	cats := []depgraph.Flags{depgraph.IdealDL1, depgraph.IdealDMiss, depgraph.IdealWindow, depgraph.IdealBMisp}
	grid := []depgraph.Alpha{0, depgraph.AlphaOf(0.5), depgraph.AlphaOne}
	direct := func(f depgraph.Flags, al depgraph.Alpha) int64 {
		return g.ExecTime(depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, al)})
	}
	// read makes one of the four kinds of read, by op mod 4.
	read := func(op int, c, d depgraph.Flags) {
		switch op % 4 {
		case 0:
			if got, err := a.ExecTimeCtx(ctx, c|d); err != nil || got != direct(c|d, 0) {
				t.Errorf("ExecTimeCtx(%v) = %d, %v", c|d, got, err)
			}
		case 1:
			if err := a.PrewarmCtx(ctx, []depgraph.Flags{0, c, d, c | d, c}); err != nil {
				t.Error(err)
			}
		case 2:
			got, err := a.ICostCtx(ctx, c, d)
			want := direct(c, 0) + direct(d, 0) - direct(c|d, 0) - direct(0, 0)
			if err != nil || got != want {
				t.Errorf("ICostCtx(%v, %v) = %d, %v; want %d", c, d, got, err, want)
			}
		case 3:
			curves, err := a.SensitivityCtx(ctx, []depgraph.Flags{c, d}, grid)
			if err != nil {
				t.Error(err)
				return
			}
			for _, cv := range curves {
				for gi, p := range cv.Points {
					if want := direct(cv.Flags, grid[gi]); p.Time != want {
						t.Errorf("curve %v α=%v: %d, direct %d", cv.Flags, p.Alpha, p.Time, want)
					}
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cats[w%len(cats)]
			d := cats[(w+1)%len(cats)]
			for r := 0; r < 4; r++ {
				read(w+r, c, d)
			}
		}(w)
	}
	wg.Wait()
	for k, n := range seen {
		if n > 1 {
			t.Errorf("idealization %+v reached the backend %d times", k, n)
		}
	}
}
