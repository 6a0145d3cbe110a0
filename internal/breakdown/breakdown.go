// Package breakdown builds the paper's parallelism-aware performance
// breakdowns (Section 2.3): instead of blaming each cycle on exactly
// one cause — impossible in an out-of-order processor — a breakdown
// has one category per base event class plus an explicit interaction
// category per overlap, so execution time is fully accounted for.
//
// Two shapes are provided:
//
//   - Focused: the Table 4 shape — every base category's cost, the
//     pairwise interaction costs against one focus category, and an
//     "Other" row absorbing the undisplayed interactions (which can
//     be negative, as in the paper).
//   - Full: the Figure 1 shape — the complete power set of a small
//     category list, which sums exactly to total execution time.
package breakdown

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"icost/internal/cost"
	"icost/internal/depgraph"
)

// Category pairs a display name with the flags idealizing it.
type Category struct {
	Name  string
	Flags depgraph.Flags
}

// BaseCategories returns the paper's eight Table 4 categories in
// display order.
func BaseCategories() []Category {
	order := []string{"dl1", "win", "bw", "bmisp", "dmiss", "shalu", "lgalu", "imiss"}
	out := make([]Category, len(order))
	for i, n := range order {
		f, ok := depgraph.FlagByName(n)
		if !ok {
			panic("breakdown: unknown base category " + n)
		}
		out[i] = Category{Name: n, Flags: f}
	}
	return out
}

// Row is one breakdown entry.
type Row struct {
	// Label is the category ("dl1") or interaction ("dl1+win").
	Label string
	// Cycles is the cost or interaction cost in cycles.
	Cycles int64
	// Percent is Cycles as a percentage of total execution time.
	Percent float64
}

// Focused is a Table 4-style breakdown for one microexecution.
type Focused struct {
	// Name labels the workload.
	Name string
	// Focus is the category whose interactions are displayed.
	Focus Category
	// Base holds each base category's individual cost.
	Base []Row
	// Pairs holds icost(Focus, c) for every other base category c.
	Pairs []Row
	// Other absorbs everything not displayed: higher-order
	// interactions, undisplayed pairs, and the residual ideal time.
	// It can be negative.
	Other Row
	// TotalCycles is the base execution time.
	TotalCycles int64
}

// Focus computes a focused breakdown from an analyzer. It is the
// uncancellable form of FocusCtx for CLI and test callers.
//
//lint:ignore ctxflow infallible wrapper over FocusCtx; a background ctx cannot cancel
func Focus(a *cost.Analyzer, focus Category, cats []Category, name string) (*Focused, error) {
	return FocusCtx(context.Background(), a, focus, cats, name)
}

// FocusMasks lists the subset unions a focused breakdown reads besides
// the base: the focus, each category, and the focus's union with every
// other category.
func FocusMasks(focus Category, cats []Category) []depgraph.Flags {
	masks := make([]depgraph.Flags, 0, 2*len(cats)+1)
	masks = append(masks, focus.Flags)
	for _, c := range cats {
		masks = append(masks, c.Flags)
		if c.Flags != focus.Flags {
			masks = append(masks, focus.Flags|c.Flags)
		}
	}
	return masks
}

// FocusCtx is Focus with cancellation: each underlying cost query
// aborts when ctx is done. FocusMasks are batch-evaluated up front.
func FocusCtx(ctx context.Context, a *cost.Analyzer, focus Category, cats []Category, name string) (*Focused, error) {
	total := a.BaseTime()
	if total <= 0 {
		return nil, fmt.Errorf("breakdown: empty execution")
	}
	if err := a.PrewarmCtx(ctx, FocusMasks(focus, cats)); err != nil {
		return nil, err
	}
	pct := func(cy int64) float64 { return 100 * float64(cy) / float64(total) }
	f := &Focused{Name: name, Focus: focus, TotalCycles: total}
	var shown int64
	for _, c := range cats {
		cy, err := a.CostCtx(ctx, c.Flags)
		if err != nil {
			return nil, err
		}
		f.Base = append(f.Base, Row{Label: c.Name, Cycles: cy, Percent: pct(cy)})
		shown += cy
	}
	for _, c := range cats {
		if c.Flags == focus.Flags {
			continue
		}
		ic, err := a.ICostCtx(ctx, focus.Flags, c.Flags)
		if err != nil {
			return nil, err
		}
		f.Pairs = append(f.Pairs, Row{
			Label:   focus.Name + "+" + c.Name,
			Cycles:  ic,
			Percent: pct(ic),
		})
		shown += ic
	}
	f.Other = Row{Label: "Other", Cycles: total - shown, Percent: pct(total - shown)}
	return f, nil
}

// Full is a complete power-set breakdown over a small category list
// (Figure 1): one row per non-empty subset plus the residual ideal
// time, summing exactly to 100%.
type Full struct {
	Name string
	// Rows are ordered by subset size then category order; labels
	// join member names with "+".
	Rows []Row
	// Residual is the execution time remaining with every listed
	// category idealized ("ideal machine" time).
	Residual Row
	// TotalCycles is the base execution time.
	TotalCycles int64
}

// ComputeFull builds the full power-set breakdown. len(cats) should
// be small (the cost is 2^k graph evaluations). It is the
// uncancellable form of ComputeFullCtx for CLI and test callers.
//
//lint:ignore ctxflow infallible wrapper over ComputeFullCtx; a background ctx cannot cancel
func ComputeFull(a *cost.Analyzer, cats []Category, name string) (*Full, error) {
	return ComputeFullCtx(context.Background(), a, cats, name)
}

// ComputeFullCtx is ComputeFull with cancellation; the 2^k subset
// queries abort as soon as ctx is done.
func ComputeFullCtx(ctx context.Context, a *cost.Analyzer, cats []Category, name string) (*Full, error) {
	k := len(cats)
	if k == 0 || k > 12 {
		return nil, fmt.Errorf("breakdown: full breakdown needs 1..12 categories, got %d", k)
	}
	total := a.BaseTime()
	if total <= 0 {
		return nil, fmt.Errorf("breakdown: empty execution")
	}
	pct := func(cy int64) float64 { return 100 * float64(cy) / float64(total) }
	out := &Full{Name: name, TotalCycles: total}

	type subset struct {
		mask  int
		label string
	}
	var subsets []subset
	for m := 1; m < 1<<k; m++ {
		var names []string
		for j := 0; j < k; j++ {
			if m&(1<<j) != 0 {
				names = append(names, cats[j].Name)
			}
		}
		subsets = append(subsets, subset{mask: m, label: strings.Join(names, "+")})
	}
	sort.SliceStable(subsets, func(i, j int) bool {
		bi, bj := popcount(subsets[i].mask), popcount(subsets[j].mask)
		if bi != bj {
			return bi < bj
		}
		return subsets[i].mask < subsets[j].mask
	})
	var all depgraph.Flags
	for _, c := range cats {
		all |= c.Flags
	}
	// Evaluate the whole power set in one batched walk up front; the
	// per-row icost queries below are then pure memo arithmetic.
	if err := a.PrewarmCtx(ctx, cost.Unions(flagsOf(cats))); err != nil {
		return nil, err
	}
	for _, s := range subsets {
		var sets []depgraph.Flags
		for j := 0; j < k; j++ {
			if s.mask&(1<<j) != 0 {
				sets = append(sets, cats[j].Flags)
			}
		}
		ic, err := a.ICostCtx(ctx, sets...)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Row{Label: s.label, Cycles: ic, Percent: pct(ic)})
	}
	resid, err := a.ExecTimeCtx(ctx, all)
	if err != nil {
		return nil, err
	}
	out.Residual = Row{Label: "ideal", Cycles: resid, Percent: pct(resid)}
	return out, nil
}

// flagsOf lists the categories' flags.
func flagsOf(cats []Category) []depgraph.Flags {
	out := make([]depgraph.Flags, len(cats))
	for i, c := range cats {
		out[i] = c.Flags
	}
	return out
}

func popcount(m int) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// CheckIdentity verifies the accounting identity of a Full breakdown:
// the rows plus the residual must sum exactly to the total time.
func (f *Full) CheckIdentity() error {
	var sum int64
	for _, r := range f.Rows {
		sum += r.Cycles
	}
	sum += f.Residual.Cycles
	if sum != f.TotalCycles {
		return fmt.Errorf("breakdown: identity violated: rows sum to %d, total %d",
			sum, f.TotalCycles)
	}
	return nil
}

// Table formats multiple Focused breakdowns (one per benchmark) in
// the paper's Table 4 layout: categories as rows, benchmarks as
// columns, percentages as cells.
func Table(bds []*Focused) string {
	if len(bds) == 0 {
		return ""
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(w, "Category")
	for _, bd := range bds {
		fmt.Fprintf(w, "\t%s", bd.Name)
	}
	fmt.Fprintln(w, "\t")
	writeRow := func(label string, get func(*Focused) float64) {
		fmt.Fprint(w, label)
		for _, bd := range bds {
			fmt.Fprintf(w, "\t%.1f", get(bd))
		}
		fmt.Fprintln(w, "\t")
	}
	for ri := range bds[0].Base {
		ri := ri
		writeRow(bds[0].Base[ri].Label, func(bd *Focused) float64 { return bd.Base[ri].Percent })
	}
	for ri := range bds[0].Pairs {
		ri := ri
		writeRow(bds[0].Pairs[ri].Label, func(bd *Focused) float64 { return bd.Pairs[ri].Percent })
	}
	writeRow("Other", func(bd *Focused) float64 { return bd.Other.Percent })
	writeRow("Total", func(bd *Focused) float64 {
		s := bd.Other.Percent
		for _, r := range bd.Base {
			s += r.Percent
		}
		for _, r := range bd.Pairs {
			s += r.Percent
		}
		return s
	})
	w.Flush()
	return b.String()
}

// StackedBar renders a Full breakdown as the Figure 1b visualization:
// an ASCII stacked bar where positive categories stack above the axis
// (possibly past 100%) and negative interactions hang below it. One
// column per character, scaled to width chars per 100%.
func StackedBar(f *Full, width int) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d cycles\n", f.Name, f.TotalCycles)
	scale := float64(width) / 100
	bar := func(pct float64) string {
		n := int(pct*scale + 0.5)
		if n < 0 {
			n = -n
		}
		if n > 4*width {
			n = 4 * width
		}
		return strings.Repeat("#", n)
	}
	rows := append([]Row{}, f.Rows...)
	rows = append(rows, f.Residual)
	for _, r := range rows {
		mark := "+"
		if r.Cycles < 0 {
			mark = "-"
		}
		fmt.Fprintf(&b, "%16s %s%7.1f%% |%s\n", r.Label, mark, abs(r.Percent), bar(r.Percent))
	}
	return b.String()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
