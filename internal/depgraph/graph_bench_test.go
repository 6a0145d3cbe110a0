package depgraph_test

// Benchmarks for BENCH_graph.json (make bench-graph): the flat CSR
// walks and batch kernels against the legacy layout's reference
// implementations, on a real simulated microexecution. The companion
// guard test keeps the warm path honest in CI without depending on
// absolute machine speed: the CSR paths may never fall behind the
// legacy paths they replaced.

import (
	"context"
	"sync"
	"testing"
	"time"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/rng"
	"icost/internal/workload"
)

const benchInsts = 20000

var (
	benchOnce sync.Once
	benchRes  *ooo.Result
)

// benchGraph builds (once) the 20k-instruction gcc graph every
// benchmark here walks.
func benchGraph(tb testing.TB) *depgraph.Graph {
	tb.Helper()
	benchOnce.Do(func() {
		// Fatalf-free so the once survives for later callers;
		// failures surface as a nil graph.
		w, err := workload.Cached("gcc", 42)
		if err != nil {
			return
		}
		tr, err := w.Execute(benchInsts, 43)
		if err != nil {
			return
		}
		if r, err := ooo.Run(tr, ooo.DefaultConfig()); err == nil {
			benchRes = r
		}
	})
	if benchRes == nil {
		tb.Fatal("benchmark graph build failed")
	}
	return benchRes.Graph
}

// batchIdeals is the 16-union warm workload: the engine's icost and
// matrix queries evaluate exactly such power-set batches.
func batchIdeals() []depgraph.Ideal {
	out := make([]depgraph.Ideal, 16)
	for k := range out {
		out[k] = depgraph.Ideal{Global: depgraph.Flags(k*5+1) & depgraph.AllFlags}
	}
	return out
}

// perInstMask is a seeded per-instruction mask shaped like the
// property tests': a quarter of the instructions idealize a random
// category set, so the effective flags change at about every other
// instruction — the worst case for resolving a lane's multipliers per
// flag change rather than per instruction.
func perInstMask(n int, seed uint64) []depgraph.Flags {
	r := rng.New(seed)
	per := make([]depgraph.Flags, n)
	for i := range per {
		if r.Bool(0.25) {
			per[i] = depgraph.Flags(r.Uint64()) & depgraph.AllFlags
		}
	}
	return per
}

func BenchmarkForwardWalk(b *testing.B) {
	g := benchGraph(b)
	id := depgraph.Ideal{Global: depgraph.IdealDMiss}
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if legacyExecTime(g, id) == 0 {
				b.Fatal("zero time")
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.ExecTime(id) == 0 {
				b.Fatal("zero time")
			}
		}
	})
	per := depgraph.Ideal{Global: depgraph.IdealDMiss, PerInst: perInstMask(g.Len(), 1)}
	b.Run("perinst", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.ExecTime(per) == 0 {
				b.Fatal("zero time")
			}
		}
	})
}

func BenchmarkBackwardWalk(b *testing.B) {
	g := benchGraph(b)
	id := depgraph.Ideal{Global: depgraph.IdealDL1}
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if legacySlacks(g, id) == nil {
				b.Fatal("nil slacks")
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.Slacks(id) == nil {
				b.Fatal("nil slacks")
			}
		}
	})
}

func BenchmarkBatchEval(b *testing.B) {
	g := benchGraph(b)
	ids := batchIdeals()
	ctx := context.Background()
	b.Run("legacy8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if legacyEvalBatch(g, ids) == nil {
				b.Fatal("nil batch")
			}
		}
	})
	for _, lanes := range []int{8, 16, 32} {
		b.Run(map[int]string{8: "csr8", 16: "csr16", 32: "csr32"}[lanes], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := depgraph.EvalBatchWidth(g, ctx, ids, lanes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	per := batchIdeals()
	for k := range per {
		per[k].PerInst = perInstMask(g.Len(), uint64(k+1))
	}
	b.Run("perinst16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := depgraph.EvalBatchWidth(g, ctx, per, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// timeIt reports the best-of-reps wall time of reps runs of fn —
// best-of filters scheduler noise, which matters because the guard
// below compares two measurements taken in the same process.
func timeIt(reps int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestWarmPathNoRegression is the CI guard on the warm query path:
// the CSR forward walk, backward walk and batch kernel must not run
// slower than the legacy implementations they replaced (with 1.5x
// headroom for timer and scheduler noise — the measured advantage is
// far larger, so a real regression trips this long before it erodes
// the recorded speedup). Relative-to-baseline in the same process, so
// CI machine speed never matters.
func TestWarmPathNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard; skipped in -short")
	}
	g := benchGraph(t)
	id := depgraph.Ideal{Global: depgraph.IdealDMiss}
	ids := batchIdeals()
	ctx := context.Background()

	// Warm both paths (table builds, pool fills) before timing.
	g.ExecTime(id)
	legacyExecTime(g, id)
	g.Slacks(id)

	const reps = 7
	const headroom = 1.5
	checks := []struct {
		name        string
		csr, legacy func()
	}{
		{"forward", func() { g.ExecTime(id) }, func() { legacyExecTime(g, id) }},
		{"backward", func() { g.Slacks(id) }, func() { legacySlacks(g, id) }},
		{"batch", func() { _, _ = g.EvalBatch(ctx, ids) }, func() { legacyEvalBatch(g, ids) }},
	}
	for _, c := range checks {
		csr := timeIt(reps, c.csr)
		leg := timeIt(reps, c.legacy)
		t.Logf("%s: csr %v, legacy %v (%.2fx)", c.name, csr, leg, float64(leg)/float64(csr))
		if float64(csr) > float64(leg)*headroom {
			t.Errorf("%s walk regressed: csr %v vs legacy %v (allowed %.1fx)", c.name, csr, leg, headroom)
		}
	}
}
