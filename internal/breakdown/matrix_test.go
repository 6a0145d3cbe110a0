package breakdown

import (
	"context"
	"errors"
	"strings"
	"testing"

	"icost/internal/cost"
	"icost/internal/depgraph"
)

func TestMatrixSymmetricAndConsistent(t *testing.T) {
	a := analyzer(t, "gzip", 8000)
	cats := BaseCategories()
	m, err := ComputeMatrix(a, cats, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	k := len(cats)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if m.Pct[i][j] != m.Pct[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
		// Diagonal equals the analyzer's individual cost.
		want := 100 * float64(a.Cost(cats[i].Flags)) / float64(a.BaseTime())
		if m.Pct[i][i] != want {
			t.Fatalf("diagonal %d = %v, want %v", i, m.Pct[i][i], want)
		}
	}
	// Off-diagonal equals the pairwise icost.
	ic := a.MustICost(cats[0].Flags, cats[1].Flags)
	want := 100 * float64(ic) / float64(a.BaseTime())
	if m.Pct[0][1] != want {
		t.Fatalf("pair (0,1) = %v, want %v", m.Pct[0][1], want)
	}
}

func TestMatrixExtremes(t *testing.T) {
	a := analyzer(t, "gzip", 8000)
	m, err := ComputeMatrix(a, BaseCategories(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	sa, sb, sp := m.StrongestSerial()
	if sp >= 0 {
		t.Skip("no serial pair on this configuration")
	}
	if sa.Name == "" || sb.Name == "" {
		t.Fatal("serial pair categories empty")
	}
	pa, pb, pp := m.StrongestParallel()
	if pp > 0 && (pa.Name == "" || pb.Name == "") {
		t.Fatal("parallel pair categories empty")
	}
	// dl1+win is expected to be the strongest serial pair on gzip.
	names := sa.Name + "+" + sb.Name
	if !strings.Contains(names, "win") && !strings.Contains(names, "shalu") {
		t.Logf("strongest serial pair %s (%.1f%%)", names, sp)
	}
}

func TestMatrixRendering(t *testing.T) {
	a := analyzer(t, "mcf", 6000)
	m, err := ComputeMatrix(a, BaseCategories()[:4], "mcf")
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	for _, want := range []string{"mcf", "dl1", "bmisp", "["} {
		if !strings.Contains(s, want) {
			t.Fatalf("matrix output missing %q:\n%s", want, s)
		}
	}
}

func TestNaiveMisaccounts(t *testing.T) {
	// The traditional breakdown must fail to account for exactly
	// 100% on an out-of-order machine with overlap: for mcf (heavy
	// overlap of misses with everything) it should over-account
	// massively.
	a := analyzer(t, "mcf", 10000)
	nv, err := ComputeNaive(a, BaseCategories(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if nv.AccountedPct > 95 && nv.AccountedPct < 105 {
		t.Fatalf("naive breakdown accounted %.1f%%, expected far from 100%%", nv.AccountedPct)
	}
	s := nv.String()
	if !strings.Contains(s, "overlap dilemma") {
		t.Fatal("missing explanation line")
	}
}

func TestNaiveChargesLatencies(t *testing.T) {
	a := analyzer(t, "gzip", 6000)
	nv, err := ComputeNaive(a, BaseCategories(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, r := range nv.Rows {
		byName[r.Label] = r.Cycles
	}
	// dl1 charge = DL1Latency per memory access; gzip does thousands.
	if byName["dl1"] <= 0 {
		t.Fatal("naive dl1 charge not positive")
	}
	// bmisp charge = recovery per mispredict.
	if byName["bmisp"] <= 0 {
		t.Fatal("naive bmisp charge not positive")
	}
	// win/bw have no per-instruction latency in the naive model.
	if byName["win"] != 0 || byName["bw"] != 0 {
		t.Fatalf("naive charged structural categories: win=%d bw=%d",
			byName["win"], byName["bw"])
	}
}

// constEval is a non-graph backend that times every idealization at t.
func constEval(t int64) cost.Eval {
	return func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
		out := make([]int64, len(ids))
		for i := range out {
			out[i] = t
		}
		return out, nil
	}
}

func TestNaiveRequiresGraph(t *testing.T) {
	a := cost.NewFromEval(constEval(100), nil)
	if _, err := ComputeNaive(a, BaseCategories(), "x"); err == nil {
		t.Fatal("naive accepted a non-graph analyzer")
	}
}

func TestMatrixEmptyExecution(t *testing.T) {
	a := cost.NewFromEval(constEval(0), nil)
	if _, err := ComputeMatrix(a, BaseCategories(), "x"); err == nil {
		t.Fatal("matrix accepted empty execution")
	}
}

// TestMatrixCancellation: a cancelled context must abort the matrix's
// batched power-set evaluation mid-walk instead of computing all k^2
// cells.
func TestMatrixCancellation(t *testing.T) {
	a := analyzer(t, "gcc", 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeMatrixCtx(ctx, a, BaseCategories(), "gcc"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// And the same analyzer still answers once the pressure is off.
	if _, err := ComputeMatrix(a, BaseCategories(), "gcc"); err != nil {
		t.Fatal(err)
	}
}
