package depgraph_test

// Property tests for the flat CSR layout: on real simulated
// microexecutions (every benchmark × several seeds), every analysis
// surface — ExecTime, NodeTimes, Slacks, EvalBatch — must be
// bit-identical to the legacy layout's walks (legacy_ref_test.go),
// across global, union and per-instruction idealizations.

import (
	"context"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/rng"
	"icost/internal/workload"
)

// buildBenchGraph simulates n instructions of the named benchmark and
// returns the built dependence graph.
func buildBenchGraph(tb testing.TB, bench string, seed uint64, n int) *ooo.Result {
	tb.Helper()
	w, err := workload.Cached(bench, seed)
	if err != nil {
		tb.Fatalf("workload %s: %v", bench, err)
	}
	tr := w.MustExecute(n, seed+1)
	res, err := ooo.Run(tr, ooo.DefaultConfig())
	if err != nil {
		tb.Fatalf("simulate %s: %v", bench, err)
	}
	return res
}

// propertyIdeals is the idealization set the properties quantify over:
// the empty set, every base category, representative unions, the full
// union, and seeded per-instruction masks.
func propertyIdeals(r *rng.Rand, n int) []depgraph.Ideal {
	ids := []depgraph.Ideal{{}}
	for b := 0; b < depgraph.NumFlags; b++ {
		ids = append(ids, depgraph.Ideal{Global: 1 << b})
	}
	ids = append(ids,
		depgraph.Ideal{Global: depgraph.IdealDL1 | depgraph.IdealDMiss},
		depgraph.Ideal{Global: depgraph.IdealBMisp | depgraph.IdealWindow | depgraph.IdealBW},
		depgraph.Ideal{Global: depgraph.AllFlags},
	)
	for k := 0; k < 2; k++ {
		per := make([]depgraph.Flags, n)
		for i := range per {
			if r.Bool(0.25) {
				per[i] = depgraph.Flags(r.Uint64()) & depgraph.AllFlags
			}
		}
		ids = append(ids, depgraph.Ideal{Global: depgraph.Flags(r.Uint64()) & depgraph.AllFlags, PerInst: per})
	}
	return ids
}

func sameTimes(t *testing.T, bench string, seed uint64, id depgraph.Ideal, got, want *depgraph.Times) {
	t.Helper()
	cols := []struct {
		name      string
		got, want []int64
	}{
		{"D", got.D, want.D}, {"R", got.R, want.R}, {"E", got.E, want.E},
		{"P", got.P, want.P}, {"C", got.C, want.C},
	}
	for _, c := range cols {
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s seed %d ideal %v: %s[%d] = %d, legacy %d",
					bench, seed, id, c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestCSRBitIdenticalAcrossBenches is the headline property: the CSR
// walks equal the legacy walks bit for bit on every benchmark × 3
// seeds, for exec times, node times, slacks and batched evaluation.
// The batch also carries the per-instruction and α-scaled lanes,
// checked against the scalar walk, and at least one graph must hold a
// reference farther back than the carry depth, so the fold's horizon
// runs on unclamped whole-graph columns.
func TestCSRBitIdenticalAcrossBenches(t *testing.T) {
	const n = 2500
	ctx := context.Background()
	farRefs := 0
	for _, bench := range workload.Names() {
		for seed := uint64(1); seed <= 3; seed++ {
			res := buildBenchGraph(t, bench, seed, n)
			g := res.Graph
			r := rng.New(seed * 977)
			ids := propertyIdeals(r, g.Len())
			farRefs += refsBeyond(g, g.Cfg.CarryDepth())

			var globals []depgraph.Ideal
			for _, id := range ids {
				if id.PerInst == nil {
					globals = append(globals, id)
				}
			}
			legacyBatch := legacyEvalBatch(g, globals)
			batched := append(append([]depgraph.Ideal(nil), ids...), scaledIdeals(r, ids[len(ids)-1].PerInst)...)
			batch, err := g.EvalBatch(ctx, batched)
			if err != nil {
				t.Fatalf("%s seed %d: EvalBatch: %v", bench, seed, err)
			}
			for k, id := range batched {
				if want := g.ExecTime(id); batch[k] != want {
					t.Fatalf("%s seed %d lane %d (ideal %v, scale %v, per-inst %t): EvalBatch %d, scalar %d",
						bench, seed, k, id.Global, id.Scale, id.PerInst != nil, batch[k], want)
				}
			}
			k := 0
			for j, id := range ids {
				if id.PerInst != nil {
					continue
				}
				if batch[j] != legacyBatch[k] {
					t.Fatalf("%s seed %d ideal %v: EvalBatch %d, legacy %d",
						bench, seed, id, batch[j], legacyBatch[k])
				}
				k++
			}

			for _, id := range ids {
				if got, want := g.ExecTime(id), legacyExecTime(g, id); got != want {
					t.Fatalf("%s seed %d ideal %v: ExecTime %d, legacy %d",
						bench, seed, id, got, want)
				}
				sameTimes(t, bench, seed, id, g.NodeTimes(id), legacyNodeTimes(g, id))
				gotSl := g.Slacks(id)
				wantSl := legacySlacks(g, id)
				for i := range wantSl {
					if gotSl[i] != wantSl[i] {
						t.Fatalf("%s seed %d ideal %v: Slacks[%d] = %d, legacy %d",
							bench, seed, id, i, gotSl[i], wantSl[i])
					}
				}
			}
			depgraph.ReleaseTimes(res.Times)
			g.Release()
		}
	}
	if farRefs == 0 {
		t.Fatal("no graph holds a producer or leader reference beyond the carry depth")
	}
	t.Logf("%d references beyond the carry depth", farRefs)
}

// scaledIdeals is a few α-scaled lanes: uniform and mixed α vectors,
// and one over the per-instruction mask per.
func scaledIdeals(r *rng.Rand, per []depgraph.Flags) []depgraph.Ideal {
	var mixed depgraph.ScaleVec
	for b := range mixed {
		mixed[b] = depgraph.Alpha(r.Intn(int(depgraph.AlphaOne) + 1))
	}
	return []depgraph.Ideal{
		{Global: depgraph.IdealDMiss | depgraph.IdealWindow, Scale: depgraph.ScaleUniform(depgraph.AllFlags, depgraph.AlphaOf(0.5))},
		{Global: depgraph.AllFlags, Scale: mixed},
		{Global: depgraph.IdealBW | depgraph.IdealBMisp, Scale: mixed, PerInst: per},
	}
}

// refsBeyond counts the producer and leader references of g that
// reach more than carry instructions back.
func refsBeyond(g *depgraph.Graph, carry int) int {
	n := 0
	for i := 0; i < g.Len(); i++ {
		for _, ref := range []int32{g.Prod1[i], g.Prod2[i], g.PPLeader[i]} {
			if ref >= 0 && i-int(ref) > carry {
				n++
			}
		}
	}
	return n
}

// TestCSRBitIdenticalWideLanes re-proves batch bit-exactness at every
// chunk width from 1 to 64 lanes, over a real microexecution.
func TestCSRBitIdenticalWideLanes(t *testing.T) {
	res := buildBenchGraph(t, "gcc", 5, 3000)
	defer func() { depgraph.ReleaseTimes(res.Times); res.Graph.Release() }()
	g := res.Graph

	var ids []depgraph.Ideal
	for f := depgraph.Flags(0); f < 40; f++ {
		ids = append(ids, depgraph.Ideal{Global: f & depgraph.AllFlags})
	}
	want := legacyEvalBatch(g, ids)
	for _, lanes := range []int{1, 2, 4, 8, 16, 32, 64} {
		got, err := depgraph.EvalBatchWidth(g, context.Background(), ids, lanes)
		if err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("lanes %d ideal %v: %d, legacy %d", lanes, ids[k], got[k], want[k])
			}
		}
	}
}
