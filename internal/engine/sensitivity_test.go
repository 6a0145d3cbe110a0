package engine

import (
	"context"
	"errors"
	"testing"
)

// TestSensitivityQuery pins the sensitivity op's whole-graph
// contract: curve shape, endpoint agreement with the binary cost op,
// grid normalization into the cache key, and the advertised accuracy
// envelope.
func TestSensitivityQuery(t *testing.T) {
	ctx := context.Background()
	acc := map[string]float64{"dl1": 0.001, "mem": 0.002}
	e := New(Config{Workers: 2, Accuracy: acc})
	defer e.Close()
	spec := SessionSpec{Bench: "gzip", Seed: 7, TraceLen: 4000, Warmup: 500}

	resp, err := e.Query(ctx, Query{Session: spec, Op: OpSensitivity, Cats: []string{"dmiss", "bmisp"}})
	if err != nil {
		t.Fatal(err)
	}
	sens := resp.Sensitivity
	if sens == nil {
		t.Fatal("no sensitivity payload")
	}
	wantGrid := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(sens.Alphas) != len(wantGrid) {
		t.Fatalf("default grid %v", sens.Alphas)
	}
	for i, x := range wantGrid {
		if sens.Alphas[i] != x {
			t.Fatalf("default grid %v, want %v", sens.Alphas, wantGrid)
		}
	}
	if len(sens.Curves) != 2 {
		t.Fatalf("%d curves", len(sens.Curves))
	}
	if sens.Accuracy["mem"] != 0.002 {
		t.Fatalf("accuracy envelope not advertised: %v", sens.Accuracy)
	}
	for _, c := range sens.Curves {
		if len(c.Points) != len(sens.Alphas) {
			t.Fatalf("curve %q has %d points", c.Name, len(c.Points))
		}
		// α=0 endpoint equals the binary cost query; α=1 recovers 0.
		cq, err := e.Query(ctx, Query{Session: spec, Op: OpCost, Cats: []string{c.Name}})
		if err != nil {
			t.Fatal(err)
		}
		if c.Points[0].Cost != cq.Value {
			t.Fatalf("curve %q α=0 cost %d, cost op %d", c.Name, c.Points[0].Cost, cq.Value)
		}
		if last := c.Points[len(c.Points)-1]; last.Cost != 0 || last.Time != resp.BaseCycles {
			t.Fatalf("curve %q α=1 point %+v, base %d", c.Name, last, resp.BaseCycles)
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Time < c.Points[i-1].Time {
				t.Fatalf("curve %q not monotone", c.Name)
			}
		}
	}

	// Empty Cats defaults to all eight categories.
	all, err := e.Query(ctx, Query{Session: spec, Op: OpSensitivity})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Sensitivity.Curves) != 8 {
		t.Fatalf("%d curves for default cats", len(all.Sensitivity.Curves))
	}

	// Grids that quantize identically share one cache entry; a
	// different grid does not.
	r1, err := e.Query(ctx, Query{Session: spec, Op: OpSensitivity, Cats: []string{"dmiss"}, Alphas: []float64{0.5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Query(ctx, Query{Session: spec, Op: OpSensitivity, Cats: []string{"dmiss"}, Alphas: []float64{0, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("equivalent grid missed the result cache")
	}
	r3, err := e.Query(ctx, Query{Session: spec, Op: OpSensitivity, Cats: []string{"dmiss"}, Alphas: []float64{0, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("different grid hit the same cache entry")
	}
	_ = r1

	// Out-of-range α is a validation error.
	var ve *ValidationError
	if _, err := e.Query(ctx, Query{Session: spec, Op: OpSensitivity, Alphas: []float64{1.5}}); !errors.As(err, &ve) {
		t.Fatalf("alpha 1.5: got %v", err)
	}
}

// TestWindowedSensitivityMatchesWholeGraph: a session answers a
// sensitivity query by folding the stream with parametric lanes — once
// in the build that opens it, once more in a re-fold replaying its log
// — bit-identical to the library's whole-graph walk.
func TestWindowedSensitivityMatchesWholeGraph(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()

	spec := SessionSpec{Bench: "gcc", Seed: 11, TraceLen: 5000, Warmup: 1000, WindowInsts: 777}
	ref := newReference(t, spec)
	for _, q := range []Query{
		{Session: spec, Op: OpSensitivity, Cats: []string{"dl1", "dmiss", "win"}, Alphas: []float64{0, 0.3, 0.6, 1}},
		{Session: spec, Op: OpSensitivity, Cats: []string{"bmisp", "dmiss"}, Alphas: []float64{0.1, 0.9}},
	} {
		got, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("sensitivity %v: %v", q.Cats, err)
		}
		sameAsLibrary(t, ref, q, got)
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 1 || m.WindowedReplaysTotal != 1 {
		t.Fatalf("%d builds, %d replays; want 1 of each", m.WindowedBuildsTotal, m.WindowedReplaysTotal)
	}
}
