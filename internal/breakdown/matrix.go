package breakdown

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"icost/internal/cost"
	"icost/internal/depgraph"
)

// Matrix is the all-pairs interaction-cost table over the base
// categories: diagonal entries are individual costs, off-diagonal
// entries pairwise icosts. It generalizes the single focus row of a
// Table 4 breakdown to every pair at once — the "which resources
// interact with which" overview an architect scans first.
type Matrix struct {
	Name string
	Cats []Category
	// Pct[i][j] is icost(cat i, cat j) for i != j and cost(cat i) on
	// the diagonal, as percent of execution time.
	Pct [][]float64
	// TotalCycles is the base execution time.
	TotalCycles int64
}

// ComputeMatrix builds the all-pairs table (k^2/2 + k cost queries,
// all memoized by the analyzer). It is the uncancellable form of
// ComputeMatrixCtx for CLI and test callers.
//
//lint:ignore ctxflow infallible wrapper over ComputeMatrixCtx; a background ctx cannot cancel
func ComputeMatrix(a *cost.Analyzer, cats []Category, name string) (*Matrix, error) {
	return ComputeMatrixCtx(context.Background(), a, cats, name)
}

// MatrixMasks lists the subset unions an all-pairs matrix reads
// besides the base: each category and each pairwise union.
func MatrixMasks(cats []Category) []depgraph.Flags {
	k := len(cats)
	masks := make([]depgraph.Flags, 0, k+k*(k-1)/2)
	for i := 0; i < k; i++ {
		masks = append(masks, cats[i].Flags)
		for j := 0; j < i; j++ {
			masks = append(masks, cats[i].Flags|cats[j].Flags)
		}
	}
	return masks
}

// ComputeMatrixCtx is ComputeMatrix with cancellation. The subset
// unions every cell needs (MatrixMasks) are gathered up front,
// deduplicated, and evaluated through the
// analyzer's batched graph walk (which fans out across GOMAXPROCS
// and aborts mid-batch when ctx is done); the cell loop below then
// assembles percentages from memoized values.
func ComputeMatrixCtx(ctx context.Context, a *cost.Analyzer, cats []Category, name string) (*Matrix, error) {
	total := a.BaseTime()
	if total <= 0 {
		return nil, fmt.Errorf("breakdown: empty execution")
	}
	k := len(cats)
	if err := a.PrewarmCtx(ctx, MatrixMasks(cats)); err != nil {
		return nil, err
	}
	m := &Matrix{Name: name, Cats: cats, TotalCycles: total}
	m.Pct = make([][]float64, k)
	pct := func(cy int64) float64 { return 100 * float64(cy) / float64(total) }
	for i := 0; i < k; i++ {
		m.Pct[i] = make([]float64, k)
		cy, err := a.CostCtx(ctx, cats[i].Flags)
		if err != nil {
			return nil, err
		}
		m.Pct[i][i] = pct(cy)
		for j := 0; j < i; j++ {
			ic, err := a.ICostCtx(ctx, cats[i].Flags, cats[j].Flags)
			if err != nil {
				return nil, err
			}
			m.Pct[i][j] = pct(ic)
			m.Pct[j][i] = m.Pct[i][j]
		}
	}
	return m, nil
}

// StrongestSerial returns the most negative off-diagonal pair, the
// "best mitigation lever" (see paper Section 4.1).
func (m *Matrix) StrongestSerial() (a, b Category, pct float64) {
	for i := range m.Cats {
		for j := 0; j < i; j++ {
			if m.Pct[i][j] < pct {
				pct = m.Pct[i][j]
				a, b = m.Cats[i], m.Cats[j]
			}
		}
	}
	return a, b, pct
}

// StrongestParallel returns the most positive off-diagonal pair —
// cycles recoverable only by a combined optimization.
func (m *Matrix) StrongestParallel() (a, b Category, pct float64) {
	for i := range m.Cats {
		for j := 0; j < i; j++ {
			if m.Pct[i][j] > pct {
				pct = m.Pct[i][j]
				a, b = m.Cats[i], m.Cats[j]
			}
		}
	}
	return a, b, pct
}

// String renders the matrix with categories on both axes; the
// diagonal (individual costs) is bracketed.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: interaction-cost matrix (%% of %d cycles; [diagonal] = individual cost)\n",
		m.Name, m.TotalCycles)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(w, "")
	for _, c := range m.Cats {
		fmt.Fprintf(w, "\t%s", c.Name)
	}
	fmt.Fprintln(w, "\t")
	for i, c := range m.Cats {
		fmt.Fprint(w, c.Name)
		for j := range m.Cats {
			if i == j {
				fmt.Fprintf(w, "\t[%.1f]", m.Pct[i][j])
			} else {
				fmt.Fprintf(w, "\t%.1f", m.Pct[i][j])
			}
		}
		fmt.Fprintln(w, "\t")
	}
	w.Flush()
	return b.String()
}

// Naive is the traditional CPI breakdown the paper's Figure 1a
// critiques: blame each event class for (event count x event
// latency) cycles, independently, with no notion of overlap. Its
// rows generally do NOT sum to total execution time — the overlap
// dilemma the interaction-cost method resolves.
type Naive struct {
	Name string
	// Rows are per-category cycle charges.
	Rows []Row
	// TotalCycles is the real execution time; AccountedPct is the sum
	// of row percentages (over or under 100%).
	TotalCycles  int64
	AccountedPct float64
}

// ComputeNaive reproduces the counter math: for every category, sum
// over instructions the latency that category contributes (the EP/DD
// latency that vanishes when the category is idealized, plus the
// recovery latency per mispredict for the bmisp category). No
// overlap is considered, so the rows over- or under-account.
func ComputeNaive(a *cost.Analyzer, cats []Category, name string) (*Naive, error) {
	g := a.Graph()
	if g == nil {
		return nil, fmt.Errorf("breakdown: naive breakdown requires a graph-backed analyzer")
	}
	total := a.BaseTime()
	if total <= 0 {
		return nil, fmt.Errorf("breakdown: empty execution")
	}
	n := &Naive{Name: name, TotalCycles: total}
	for _, c := range cats {
		var cy int64
		for i := 0; i < g.Len(); i++ {
			// The category's latency contribution at instruction i is
			// the EP/DD latency that disappears when the category is
			// idealized — exactly what a counter-based "events x
			// latency" estimate charges.
			cy += g.EPLat(i, 0) - g.EPLat(i, c.Flags)
			cy += g.DDLat(i, 0) - g.DDLat(i, c.Flags)
			if g.Info[i].Mispredict && c.Flags&depgraph.IdealBMisp != 0 {
				// Charge the recovery latency to the bmisp category.
				cy += int64(g.Cfg.BranchRecovery)
			}
		}
		pctV := 100 * float64(cy) / float64(total)
		n.Rows = append(n.Rows, Row{Label: c.Name, Cycles: cy, Percent: pctV})
		n.AccountedPct += pctV
	}
	return n, nil
}

// String renders the naive breakdown with its accounting error.
func (n *Naive) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: traditional count-x-latency breakdown (%d cycles)\n", n.Name, n.TotalCycles)
	for _, r := range n.Rows {
		fmt.Fprintf(&b, "  %8s %8d cycles %6.1f%%\n", r.Label, r.Cycles, r.Percent)
	}
	fmt.Fprintf(&b, "  accounted: %.1f%% of execution time (the overlap dilemma: not 100%%)\n",
		n.AccountedPct)
	return b.String()
}
