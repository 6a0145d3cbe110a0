package cost

import (
	"context"
	"reflect"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/rng"
)

func TestSensitivityCurves(t *testing.T) {
	g := benchGraph(t, "gzip", 4000)
	a := New(g)
	ctx := context.Background()
	cats := []depgraph.Flags{depgraph.IdealDMiss, depgraph.IdealBMisp, depgraph.IdealDL1 | depgraph.IdealShortALU}
	grid := DefaultGrid()
	curves, err := a.SensitivityCtx(ctx, cats, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != len(cats) {
		t.Fatalf("%d curves for %d categories", len(curves), len(cats))
	}
	base := a.BaseTime()
	for ci, c := range curves {
		if c.Flags != cats[ci] || c.Name != cats[ci].String() {
			t.Fatalf("curve %d mislabelled: %+v", ci, c)
		}
		if len(c.Points) != len(grid) {
			t.Fatalf("curve %q has %d points, want %d", c.Name, len(c.Points), len(grid))
		}
		// Every point must match a direct scalar evaluation.
		for gi, p := range c.Points {
			id := depgraph.Ideal{Global: c.Flags, Scale: depgraph.ScaleUniform(c.Flags, grid[gi])}
			if want := g.ExecTime(id); p.Time != want {
				t.Fatalf("curve %q α=%v: time %d, direct %d", c.Name, p.Alpha, p.Time, want)
			}
			if p.Cost != base-p.Time {
				t.Fatalf("curve %q α=%v: cost %d != base-time %d", c.Name, p.Alpha, p.Cost, base-p.Time)
			}
			if gi > 0 && p.Time < c.Points[gi-1].Time {
				t.Fatalf("curve %q not monotone at α=%v", c.Name, p.Alpha)
			}
		}
		// Endpoints: α=0 is the binary cost, α=1 recovers nothing.
		if got, want := c.Points[0].Cost, a.Cost(c.Flags); got != want {
			t.Fatalf("curve %q α=0 cost %d, binary cost %d", c.Name, got, want)
		}
		if last := c.Points[len(c.Points)-1]; last.Cost != 0 || last.Time != base {
			t.Fatalf("curve %q α=1 point %+v, want base %d", c.Name, last, base)
		}
	}

	// Repeat query: pure memo reads, identical answers.
	again, err := a.SensitivityCtx(ctx, cats, grid)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range curves {
		for gi := range curves[ci].Points {
			if again[ci].Points[gi] != curves[ci].Points[gi] {
				t.Fatal("memoized sensitivity differs from first evaluation")
			}
		}
	}
}

func TestSensitivityErrors(t *testing.T) {
	g := benchGraph(t, "gzip", 500)
	a := New(g)
	// Any backend answers sensitivity: a non-graph analyzer over the
	// same graph's batch walk returns the graph analyzer's curves.
	cats := []depgraph.Flags{depgraph.IdealDL1, depgraph.IdealWindow | depgraph.IdealBW}
	want, err := a.SensitivityCtx(context.Background(), cats, DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewFromEval(g.EvalBatch, nil).SensitivityCtx(context.Background(), cats, DefaultGrid())
	if err != nil {
		t.Fatalf("non-graph backend: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("non-graph backend curves %+v, graph analyzer %+v", got, want)
	}
	if _, err := a.SensitivityCtx(context.Background(), nil, DefaultGrid()); err == nil {
		t.Fatal("want error for empty categories")
	}
	if _, err := a.SensitivityCtx(context.Background(), []depgraph.Flags{depgraph.IdealDL1}, nil); err == nil {
		t.Fatal("want error for empty grid")
	}
	if _, err := a.SensitivityCtx(context.Background(), []depgraph.Flags{0}, DefaultGrid()); err == nil {
		t.Fatal("want error for empty category")
	}
}

// TestScaledMemoKeysNoCollision is the α-blindness regression
// property: across random α grids, memoized scaled queries — global
// and per-instruction — must always return the same value as a direct
// un-memoized graph evaluation. An α-blind key would make a later
// query at a different α return the first α's cached time.
func TestScaledMemoKeysNoCollision(t *testing.T) {
	g := benchGraph(t, "gzip", 2000)
	a := New(g)
	r := rng.New(99)
	for trial := 0; trial < 60; trial++ {
		f := depgraph.Flags(r.Uint64()) & depgraph.AllFlags
		if f == 0 {
			f = depgraph.IdealDMiss
		}
		var s depgraph.ScaleVec
		for b := 0; b < depgraph.NumFlags; b++ {
			s[b] = depgraph.Alpha(r.Intn(int(depgraph.AlphaOne) + 1))
		}
		id := depgraph.Ideal{Global: f, Scale: s}
		if r.Bool(0.4) {
			per := make([]depgraph.Flags, g.Len())
			for i := range per {
				if r.Bool(0.2) {
					per[i] = depgraph.Flags(r.Uint64()) & depgraph.AllFlags
				}
			}
			id.PerInst = per
		}
		want := g.ExecTime(id)
		if got := a.CostSet(id); got != a.BaseTime()-want {
			t.Fatalf("trial %d: CostSet %d, direct %d (flags %v scale %v perInst=%v)",
				trial, got, a.BaseTime()-want, f, s, id.PerInst != nil)
		}
	}
	// Same flags, two different α's, queried back to back: the second
	// answer must be the second α's, not the first's memo entry.
	f := depgraph.IdealDMiss
	lo := depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, 64)}
	hi := depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, 192)}
	cLo, cHi := a.CostSet(lo), a.CostSet(hi)
	if cLo != a.BaseTime()-g.ExecTime(lo) || cHi != a.BaseTime()-g.ExecTime(hi) {
		t.Fatalf("α memo collision: cost(α=.25)=%d cost(α=.75)=%d", cLo, cHi)
	}
	if cLo < cHi {
		t.Fatalf("lower α must recover at least as much: %d < %d", cLo, cHi)
	}
}

// TestScaledKeyCanonical: ideals identical up to ignored scale entries
// share one memo entry, and so do a category at α=1 and no category
// at all; the split between Global and PerInst does not matter for a
// per-instruction set either.
func TestScaledKeyCanonical(t *testing.T) {
	g := benchGraph(t, "gzip", 1000)
	a := New(g)
	f := depgraph.IdealDMiss | depgraph.IdealBMisp
	s := depgraph.ScaleUniform(f, 128)
	noisy := s
	noisy[0] = 7 // dl1 entry — unselected, must be ignored
	if globalKey(f, s) != globalKey(f, noisy) {
		t.Fatal("canonical keys differ on an ignored entry")
	}
	if a.CostSet(depgraph.Ideal{Global: f, Scale: s}) != a.CostSet(depgraph.Ideal{Global: f, Scale: noisy}) {
		t.Fatal("ignored scale entry changed the answer")
	}
	if n := len(a.memo); n != 2 { // the base and the one scaled entry
		t.Fatalf("memo has %d entries, want 2", n)
	}

	// α=1 is the unidealized machine: {dmiss α=1} is the base's entry.
	fresh := New(g)
	one := depgraph.Ideal{Global: depgraph.IdealDMiss, Scale: depgraph.ScaleUniform(depgraph.IdealDMiss, depgraph.AlphaOne)}
	if globalKey(one.Global, one.Scale) != (memoKey{}) {
		t.Fatal("a category at α=1 keeps its own key")
	}
	if c := fresh.CostSet(one); c != 0 {
		t.Fatalf("cost of {dmiss α=1} = %d, want 0", c)
	}
	if n := len(fresh.memo); n != 1 {
		t.Fatalf("{dmiss α=1} and {} hold %d memo entries, want 1", n)
	}

	// Per-instruction: same effective vector and scale, different
	// Global/PerInst split — one key.
	per := make([]depgraph.Flags, g.Len())
	for i := range per {
		per[i] = depgraph.IdealDL1
	}
	idA := depgraph.Ideal{Global: 0, PerInst: per, Scale: depgraph.ScaleUniform(depgraph.IdealDL1, 200)}
	kA := a.keyOf(idA)
	perB := make([]depgraph.Flags, g.Len())
	idB := depgraph.Ideal{Global: depgraph.IdealDL1, PerInst: perB, Scale: depgraph.ScaleUniform(depgraph.IdealDL1, 200)}
	if kB := a.keyOf(idB); kA != kB {
		t.Fatal("same effective vector hashed differently")
	}
	// Different α on the same vector: distinct keys.
	idC := idA
	idC.Scale = depgraph.ScaleUniform(depgraph.IdealDL1, 100)
	if kC := a.keyOf(idC); kC == kA {
		t.Fatal("setKey is α-blind")
	}
}

func BenchmarkSensitivityCurves(b *testing.B) {
	g := benchGraph(b, "gzip", 8000)
	a := New(g)
	cats := make([]depgraph.Flags, 0, depgraph.NumFlags)
	for bnum := 0; bnum < depgraph.NumFlags; bnum++ {
		cats = append(cats, 1<<bnum)
	}
	grid := DefaultGrid()
	ctx := context.Background()
	// Cold pass to size the working set, then measure warm+cold mix:
	// each iteration re-queries the same grid (memoized) — the serving
	// pattern — on a fresh analyzer every 8th run (the build pattern).
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			a = New(g)
		}
		if _, err := a.SensitivityCtx(ctx, cats, grid); err != nil {
			b.Fatal(err)
		}
	}
}
