package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"icost/internal/breakdown"
	"icost/internal/cost"
	"icost/internal/depgraph"
)

// Op names a query kind.
type Op string

const (
	// OpCost: cost of the union of Cats (cycles saved by idealizing
	// them all together).
	OpCost Op = "cost"
	// OpICost: interaction cost of the Cats, one event set per entry.
	OpICost Op = "icost"
	// OpExecTime: execution time with the union of Cats idealized
	// (empty Cats = base time).
	OpExecTime Op = "exectime"
	// OpBreakdown: Table 4-style focused breakdown over Cats with
	// pairwise interactions against Focus.
	OpBreakdown Op = "breakdown"
	// OpFull: Figure 1-style full power-set breakdown over Cats.
	OpFull Op = "full"
	// OpSlack: per-instruction slack distribution summary.
	OpSlack Op = "slack"
	// OpMatrix: all-pairs interaction-cost matrix over Cats.
	OpMatrix Op = "matrix"
	// OpSensitivity: per-category response curves — execution time vs
	// the scale factor α applied to each category's latency, sampled
	// at the query's Alphas grid.
	OpSensitivity Op = "sensitivity"
)

// Query is one analysis request against a session.
type Query struct {
	Session SessionSpec `json:"session"`
	Op      Op          `json:"op"`
	// Cats are category names ("dl1", "dmiss", ...). Meaning depends
	// on Op: for cost/exectime they are unioned into one event set;
	// for icost each entry is its own set; for breakdown/full/matrix
	// they are the category list (empty = the paper's eight). For
	// cost/exectime/icost/matrix the order is canonicalized (sorted)
	// during normalization: unions and interaction costs are
	// permutation-invariant (paper §2.2), so icost(a,b) and
	// icost(b,a) are one query — one cache entry, one flight.
	Cats []string `json:"cats,omitempty"`
	// Focus is the breakdown focus category (default "dl1").
	Focus string `json:"focus,omitempty"`
	// Alphas is the sensitivity sample grid in [0,1] (sensitivity op
	// only; default {0, 0.25, 0.5, 0.75, 1}). Values are quantized to
	// the model's fixed-point α resolution, sorted and deduplicated
	// during normalization, so grids that quantize identically share
	// one cache entry and one flight.
	Alphas []float64 `json:"alphas,omitempty"`
}

// SlackSummary is the aggregate the slack query returns (the
// cmd/icost -slack view, shaped for JSON).
type SlackSummary struct {
	Insts     int     `json:"insts"`
	Critical  int     `json:"critical"` // slack == 0
	Small     int     `json:"small"`    // 1..9 cycles
	Large     int     `json:"large"`    // >= 10 cycles: de-optimization candidates
	MeanSlack float64 `json:"mean_slack"`
}

// Response is a query result. Exactly one of the payload fields is
// set, matching Op.
type Response struct {
	Op         Op     `json:"op"`
	SessionKey string `json:"session_key"`
	Bench      string `json:"bench"`
	BaseCycles int64  `json:"base_cycles"`
	Insts      int    `json:"insts"`

	// Value is the scalar answer of cost/icost/exectime, in cycles.
	Value int64 `json:"value,omitempty"`
	// Interaction classifies an icost value (serial / independent /
	// parallel).
	Interaction string `json:"interaction,omitempty"`

	Breakdown   *breakdown.Focused `json:"breakdown,omitempty"`
	Full        *breakdown.Full    `json:"full,omitempty"`
	Matrix      *breakdown.Matrix  `json:"matrix,omitempty"`
	Slack       *SlackSummary      `json:"slack,omitempty"`
	Sensitivity *SensitivityResult `json:"sensitivity,omitempty"`

	// Windowed reports that the session was built through the
	// bounded-memory long-trace pipeline: Windows is the number of
	// emission blocks folded and PeakBytes the peak graph-analysis
	// storage held resident during the build.
	Windowed  bool  `json:"windowed,omitempty"`
	Windows   int   `json:"windows,omitempty"`
	PeakBytes int64 `json:"peak_bytes,omitempty"`

	// Cached reports whether this response was served from the result
	// cache; Elapsed is the serving time (build + compute for a cold
	// query, lookup time when cached).
	Cached  bool          `json:"cached"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// SensitivityResult is the sensitivity op's payload: one response
// curve per queried category, sampled at the normalized α grid, plus
// the advertised model-accuracy envelope (Config.Accuracy) when the
// operator configured one.
type SensitivityResult struct {
	Alphas   []float64          `json:"alphas"`
	Curves   []cost.Curve       `json:"curves"`
	Accuracy map[string]float64 `json:"accuracy,omitempty"`
}

// normalize validates the query and resolves defaults. It does not
// touch the session spec (normalized separately).
func (q Query) normalize() (Query, error) {
	switch q.Op {
	case OpCost, OpICost, OpExecTime, OpBreakdown, OpFull, OpSlack, OpMatrix, OpSensitivity:
	case "":
		return q, errValidation("engine: query needs an op")
	default:
		return q, errValidation("engine: unknown op %q", q.Op)
	}
	for _, c := range q.Cats {
		if _, ok := depgraph.FlagByName(c); !ok {
			return q, errValidation("engine: unknown category %q (have %s)",
				c, strings.Join(depgraph.FlagNames(), ","))
		}
	}
	switch q.Op {
	case OpCost:
		if len(q.Cats) == 0 {
			return q, errValidation("engine: cost query needs at least one category")
		}
	case OpICost:
		if len(q.Cats) < 2 {
			return q, errValidation("engine: icost query needs at least two categories")
		}
	case OpBreakdown, OpFull, OpMatrix, OpSensitivity:
		if len(q.Cats) == 0 {
			q.Cats = depgraph.FlagNames()
		}
		if q.Op == OpFull && len(q.Cats) > 12 {
			return q, errValidation("engine: full breakdown limited to 12 categories, got %d", len(q.Cats))
		}
	}
	if q.Op == OpSensitivity {
		if len(q.Alphas) == 0 {
			q.Alphas = []float64{0, 0.25, 0.5, 0.75, 1}
		}
		// Quantize to the model's fixed-point resolution, then sort and
		// deduplicate: the canonical grid is part of the cache key, and
		// curves are reported in ascending α.
		quant := make([]float64, 0, len(q.Alphas))
		for _, x := range q.Alphas {
			if x < 0 || x > 1 {
				return q, errValidation("engine: sensitivity alpha %v outside [0,1]", x)
			}
			quant = append(quant, depgraph.AlphaOf(x).Float())
		}
		sort.Float64s(quant)
		dedup := quant[:1]
		for _, x := range quant[1:] {
			if x != dedup[len(dedup)-1] {
				dedup = append(dedup, x)
			}
		}
		q.Alphas = dedup
	} else {
		q.Alphas = nil
	}
	switch q.Op {
	case OpCost, OpExecTime, OpICost, OpMatrix, OpSensitivity:
		// Canonical category order: the cost/exectime union is a set,
		// and icost and the all-pairs matrix are permutation-invariant
		// (paper §2.2), so icost(b,a) must hit the cache entry and
		// in-progress flight of icost(a,b) rather than recompute.
		// Matrix rows/columns come out in sorted order as a result.
		if !sort.StringsAreSorted(q.Cats) {
			q.Cats = append([]string(nil), q.Cats...)
			sort.Strings(q.Cats)
		}
	}
	if q.Op == OpBreakdown {
		if q.Focus == "" {
			q.Focus = "dl1"
		}
		if _, ok := depgraph.FlagByName(q.Focus); !ok {
			return q, errValidation("engine: unknown focus category %q", q.Focus)
		}
	} else {
		q.Focus = ""
	}
	return q, nil
}

// key is the result-cache / single-flight identity of a normalized
// query. Category order is already canonical where it is semantically
// irrelevant (normalize sorts cost/exectime unions and the
// permutation-invariant icost/matrix lists), so the key is a plain
// join.
func (q Query) key(sessionKey string) string {
	k := sessionKey + "|" + string(q.Op) + "|" + strings.Join(q.Cats, ",") + "|" + q.Focus
	if len(q.Alphas) > 0 {
		// Already quantized, sorted and deduplicated by normalize.
		parts := make([]string, len(q.Alphas))
		for i, x := range q.Alphas {
			parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		k += "|" + strings.Join(parts, ",")
	}
	return k
}

// flagsOf resolves category names; union=true ORs them into one set.
func flagsOf(names []string) []depgraph.Flags {
	out := make([]depgraph.Flags, 0, len(names))
	for _, n := range names {
		f, _ := depgraph.FlagByName(n) // validated by normalize
		out = append(out, f)
	}
	return out
}

func unionFlags(names []string) depgraph.Flags {
	var u depgraph.Flags
	for _, f := range flagsOf(names) {
		u |= f
	}
	return u
}

func catsOf(names []string) []breakdown.Category {
	out := make([]breakdown.Category, 0, len(names))
	for _, n := range names {
		f, _ := depgraph.FlagByName(n)
		out = append(out, breakdown.Category{Name: n, Flags: f})
	}
	return out
}

// focus resolves a breakdown query's focus category.
func (q Query) focus() breakdown.Category {
	f, _ := depgraph.FlagByName(q.Focus)
	return breakdown.Category{Name: q.Focus, Flags: f}
}

// grid resolves a sensitivity query's α grid.
func (q Query) grid() []depgraph.Alpha {
	grid := make([]depgraph.Alpha, len(q.Alphas))
	for i, x := range q.Alphas {
		grid[i] = depgraph.AlphaOf(x)
	}
	return grid
}

// reads lists the idealizations a normalized query reads through the
// analyzer memo, the base first: what a windowed build folds so that
// the query opening the session answers from its build. Each op's list
// comes from the helper it prewarms or resolves with, so no read set is
// written twice. Slack reads node times, not the memo.
func (q Query) reads() []depgraph.Ideal {
	var masks []depgraph.Flags
	switch q.Op {
	case OpCost, OpExecTime:
		masks = []depgraph.Flags{unionFlags(q.Cats)}
	case OpICost, OpFull:
		masks = cost.Unions(flagsOf(q.Cats))
	case OpBreakdown:
		masks = breakdown.FocusMasks(q.focus(), catsOf(q.Cats))
	case OpMatrix:
		masks = breakdown.MatrixMasks(catsOf(q.Cats))
	case OpSensitivity:
		return append([]depgraph.Ideal{{}}, cost.SamplePoints(flagsOf(q.Cats), q.grid())...)
	}
	ids := make([]depgraph.Ideal, 1, 1+len(masks))
	for _, f := range masks {
		ids = append(ids, depgraph.Ideal{Global: f})
	}
	return ids
}

// execute answers a normalized query against a built session. It runs
// on an engine worker; ctx carries the client's cancellation.
func (e *Engine) execute(ctx context.Context, q Query, s *session) (*Response, error) {
	a := s.analyzer
	resp := &Response{
		Op:         q.Op,
		SessionKey: s.key,
		Bench:      s.spec.Bench,
		BaseCycles: a.BaseTime(),
		Insts:      s.instCount(),
		Windowed:   s.windowed,
		Windows:    s.windows,
		PeakBytes:  s.peakBytes,
	}
	switch q.Op {
	case OpCost:
		v, err := a.CostCtx(ctx, unionFlags(q.Cats))
		if err != nil {
			return nil, err
		}
		resp.Value = v
	case OpExecTime:
		v, err := a.ExecTimeCtx(ctx, unionFlags(q.Cats))
		if err != nil {
			return nil, err
		}
		resp.Value = v
	case OpICost:
		v, err := a.ICostCtx(ctx, flagsOf(q.Cats)...)
		if err != nil {
			return nil, err
		}
		resp.Value = v
		resp.Interaction = cost.Classify(v, 0).String()
	case OpBreakdown:
		bd, err := breakdown.FocusCtx(ctx, a, q.focus(), catsOf(q.Cats), s.spec.Bench)
		if err != nil {
			return nil, err
		}
		resp.Breakdown = bd
	case OpFull:
		fb, err := breakdown.ComputeFullCtx(ctx, a, catsOf(q.Cats), s.spec.Bench)
		if err != nil {
			return nil, err
		}
		resp.Full = fb
	case OpMatrix:
		m, err := breakdown.ComputeMatrixCtx(ctx, a, catsOf(q.Cats), s.spec.Bench)
		if err != nil {
			return nil, err
		}
		resp.Matrix = m
	case OpSensitivity:
		curves, err := a.SensitivityCtx(ctx, flagsOf(q.Cats), q.grid())
		if err != nil {
			return nil, err
		}
		resp.Sensitivity = &SensitivityResult{
			Alphas:   q.Alphas,
			Curves:   curves,
			Accuracy: e.cfg.Accuracy,
		}
	case OpSlack:
		// Query rejects slack on a windowed session, which holds no graph.
		slacks, err := a.Graph().SlacksCtx(ctx, depgraph.Ideal{})
		if err != nil {
			return nil, err
		}
		sum := &SlackSummary{Insts: len(slacks)}
		var total int64
		for _, sl := range slacks {
			total += sl
			switch {
			case sl == 0:
				sum.Critical++
			case sl < 10:
				sum.Small++
			default:
				sum.Large++
			}
		}
		if len(slacks) > 0 {
			sum.MeanSlack = float64(total) / float64(len(slacks))
		}
		resp.Slack = sum
	default:
		return nil, fmt.Errorf("engine: unhandled op %q", q.Op)
	}
	return resp, nil
}
