package cost

import (
	"testing"

	"icost/internal/depgraph"
)

func TestRankStaticLoadMisses(t *testing.T) {
	g := benchGraph(t, "mcf", 20000)
	a := New(g)
	ranked := RankStaticLoadMisses(a, 5)
	if len(ranked) == 0 {
		t.Fatal("no ranked loads on mcf")
	}
	// Descending cost order.
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Cost > ranked[i-1].Cost {
			t.Fatalf("rank order violated at %d", i)
		}
	}
	// Every entry meets the event threshold and has non-negative cost.
	for _, r := range ranked {
		if r.Events < 5 {
			t.Fatalf("entry below threshold: %+v", r)
		}
		if r.Cost < 0 {
			t.Fatalf("negative cost: %+v", r)
		}
	}
	// The top entry's cost can't exceed the whole-category cost.
	if all := a.Cost(depgraph.IdealDMiss); ranked[0].Cost > all {
		t.Fatalf("top load cost %d > category cost %d", ranked[0].Cost, all)
	}
}

func TestRankStaticMispredicts(t *testing.T) {
	g := benchGraph(t, "bzip", 20000)
	a := New(g)
	ranked := RankStaticMispredicts(a, 3)
	if len(ranked) == 0 {
		t.Fatal("no ranked branches on bzip")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Cost > ranked[i-1].Cost {
			t.Fatalf("rank order violated at %d", i)
		}
	}
	if all := a.Cost(depgraph.IdealBMisp); ranked[0].Cost > all {
		t.Fatalf("top branch cost %d > category cost %d", ranked[0].Cost, all)
	}
}

func TestRankRequiresGraph(t *testing.T) {
	a := NewFromEval(flagEval(nil, func(depgraph.Flags) int64 { return 10 }), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without graph")
		}
	}()
	RankStaticLoadMisses(a, 1)
}

func TestRankThresholdFilters(t *testing.T) {
	g := benchGraph(t, "mcf", 15000)
	a := New(g)
	lo := RankStaticLoadMisses(a, 1)
	hi := RankStaticLoadMisses(a, 50)
	if len(hi) > len(lo) {
		t.Fatal("higher threshold returned more entries")
	}
}
