package depgraph

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"icost/internal/rng"
)

// randomCfg perturbs the machine parameters so the batch kernels are
// exercised across bandwidths, window sizes and pipeline constants,
// not just the default Table 6 machine.
func randomCfg(r *rng.Rand) Config {
	cfg := DefaultConfig()
	cfg.FetchBW = 1 + r.Intn(4)
	cfg.CommitBW = 1 + r.Intn(4)
	cfg.Window = 2 + r.Intn(40)
	cfg.BranchRecovery = r.Intn(12)
	cfg.WakeupExtra = r.Intn(2)
	cfg.DL1Latency = 1 + r.Intn(3)
	cfg.DispatchToReady = r.Intn(3)
	cfg.CompleteToCommit = r.Intn(3)
	return cfg
}

func randomFlags(r *rng.Rand) Flags {
	return Flags(r.Uint64()) & AllFlags
}

// randomIdeal is either a global idealization or a per-instruction
// one (each instruction gets its own mask) with a global component.
func randomIdeal(r *rng.Rand, n int) Ideal {
	id := Ideal{Global: randomFlags(r)}
	if r.Bool(0.5) {
		per := make([]Flags, n)
		for i := range per {
			if r.Bool(0.3) {
				per[i] = randomFlags(r)
			}
		}
		id.PerInst = per
	}
	return id
}

// TestBatchMatchesScalar is the bit-exactness property: EvalBatch must
// equal the scalar walk element-wise for every lane, across random
// machines, trace lengths and idealization shapes. Two cases are
// pinned rather than left to the draw: a short final chunk, and a
// machine that fails ValidateWindowed on a graph longer than its carry
// depth, whose fold must neither wrap its ring nor ignore a far
// producer.
func TestBatchMatchesScalar(t *testing.T) {
	ctx := context.Background()
	check := func(label string, g *Graph, ids []Ideal, width int) {
		t.Helper()
		got, err := g.evalBatch(ctx, ids, width)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("%s: %d results for %d lanes", label, len(got), len(ids))
		}
		for w, id := range ids {
			if want := g.ExecTime(id); got[w] != want {
				t.Fatalf("%s lane %d (n=%d): batch %d, scalar %d (ideal %+v)",
					label, w, g.Len(), got[w], want, id)
			}
		}
	}
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		n := r.Intn(300) // includes 0-length microexecutions
		g := randomGraph(r.Derive("graph"), n)
		g.Cfg = randomCfg(r.Derive("cfg"))
		width := 1 + r.Intn(2*defaultLanes()+3) // spans sub-chunk and multi-chunk
		ids := make([]Ideal, width)
		for w := range ids {
			ids[w] = randomIdeal(r, n)
		}
		check(fmt.Sprintf("seed %d", seed), g, ids, defaultLanes())
	}

	r := rng.New(61)
	g := randomGraph(r.Derive("graph"), 300)
	ids := make([]Ideal, 11)
	for w := range ids {
		ids[w] = randomIdeal(r, g.Len())
	}
	check("short final chunk", g, ids, 8) // chunks of 8 and 3 lanes

	// WakeupExtra above DispatchToReady+CompleteToCommit voids the
	// carry argument; a small window makes the carry depth 4, so most
	// producers lie beyond it.
	cfg := g.Cfg
	cfg.DispatchToReady, cfg.CompleteToCommit, cfg.WakeupExtra = 0, 0, 2
	cfg.Window, cfg.WindowIdealFactor, cfg.FetchBW, cfg.CommitBW = 2, 2, 1, 1
	if cfg.ValidateWindowed() == nil || g.Len() <= cfg.CarryDepth() {
		t.Fatalf("pinned machine passes ValidateWindowed or n=%d <= carry depth %d", g.Len(), cfg.CarryDepth())
	}
	check("failing ValidateWindowed", g.WithConfig(cfg), ids, 8)
}

// TestBatchHugeWindowBoundedByGraph: the carry depth follows the
// machine's window, which sessions take from user input, but a batch
// never needs a horizon or ring rows beyond the graph. A window of
// 1<<20 (carry depth 20 × 2^20) on a 2,000-instruction graph must stay
// exact and allocate O(n): a carry-sized ring would take gigabytes per
// chunk.
func TestBatchHugeWindowBoundedByGraph(t *testing.T) {
	r := rng.New(13)
	g := randomGraph(r.Derive("graph"), 2000)
	cfg := g.Cfg
	cfg.Window = 1 << 20
	g = g.WithConfig(cfg)
	if g.Len() >= cfg.CarryDepth() {
		t.Fatalf("n=%d reaches the carry depth %d", g.Len(), cfg.CarryDepth())
	}
	ids := make([]Ideal, 2*defaultLanes()+3) // several chunks, one short
	for w := range ids {
		ids[w] = randomIdeal(r, g.Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := g.EvalBatch(context.Background(), ids)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk's three rings at n rows per lane, plus the flat
	// tables, lane tables and slack: a few megabytes at most.
	limit := uint64(3*8*g.Len()*len(ids)) + 4<<20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Fatalf("batch allocated %d bytes, want <= %d (O(n), not O(window))", alloc, limit)
	}
	for w, id := range ids {
		if want := g.ExecTime(id); got[w] != want {
			t.Fatalf("lane %d: batch %d, scalar %d", w, got[w], want)
		}
	}
}

func TestBatchEmptyAndSingle(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(rng.New(7), 100)

	out, err := g.EvalBatch(ctx, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}

	id := Ideal{Global: IdealDMiss | IdealWindow}
	out, err = g.EvalBatch(ctx, []Ideal{id})
	if err != nil {
		t.Fatal(err)
	}
	if want := g.ExecTime(id); out[0] != want {
		t.Fatalf("batch of one: %d, scalar %d", out[0], want)
	}

	// Empty graph: every lane is 0 cycles.
	empty := New(DefaultConfig(), 0)
	out, err = empty.EvalBatch(ctx, []Ideal{{}, {Global: IdealDL1}})
	if err != nil || out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty graph batch: out=%v err=%v", out, err)
	}
}

func TestBatchLaneLengthMismatch(t *testing.T) {
	g := randomGraph(rng.New(9), 50)
	_, err := g.EvalBatch(context.Background(), []Ideal{
		{Global: IdealDL1},
		{PerInst: make([]Flags, 49)},
	})
	if err == nil || !strings.Contains(err.Error(), "lane 1") {
		t.Fatalf("want lane-length error naming lane 1, got %v", err)
	}
}

// TestBatchCancellation: a cancelled context must abort the walk
// mid-batch with the caller's error, on graphs long enough that every
// chunk crosses several ctx-check strides.
func TestBatchCancellation(t *testing.T) {
	g := randomGraph(rng.New(11), 3*ctxCheckStride)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids := make([]Ideal, 3*defaultLanes()) // several chunks, exercises fan-out
	for w := range ids {
		ids[w] = Ideal{Global: Flags(w) & AllFlags}
	}
	if _, err := g.EvalBatch(ctx, ids); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The same batch completes once the context is live again.
	if _, err := g.EvalBatch(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
}
