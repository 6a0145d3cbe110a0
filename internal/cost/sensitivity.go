package cost

// Sensitivity curves: the parametric generalization of cost. Where
// cost(S) answers "how much faster with S fully idealized", a
// response curve samples execution time at intermediate scale factors
// α ∈ [0,1] of S's latency — the sensitivity/causality methodology of
// the related work (Pompougnac, Dutilleul et al.), grafted onto the
// paper's graph model. A curve whose time falls linearly in α marks a
// resource squarely on the critical path; a flat-then-cliff shape
// marks one hiding behind another bottleneck until the scale crosses
// it — exactly the distinction interaction costs quantify pairwise,
// read here along one axis.

import (
	"context"
	"fmt"

	"icost/internal/depgraph"
)

// CurvePoint is one grid sample of a response curve: the execution
// time with the curve's categories scaled to α, and the cost
// (base − time) that idealization level recovers.
type CurvePoint struct {
	Alpha float64 `json:"alpha"`
	Time  int64   `json:"time"`
	Cost  int64   `json:"cost"`
}

// Curve is the response of execution time to scaling one event
// category set's latency by α, sampled on a grid. Points are in grid
// order; Cost at α=0 equals the binary cost of Flags, Cost at α=1 is
// zero.
type Curve struct {
	Name   string         `json:"name"`
	Flags  depgraph.Flags `json:"-"`
	Points []CurvePoint   `json:"points"`
}

// SensitivityCtx returns one response curve per category set in cats,
// sampled at every α in grid. Every (category, α) sample is read
// through the memo under its canonical key, together with the base, and
// the misses are evaluated in one backend call: α=0 is the binary
// idealization, so a sensitivity query after a breakdown reuses its
// evaluations; α=1 is the base; repeated queries are pure memo reads.
// Any backend answers: a graph walks its misses in one multi-lane
// batch, a windowed session re-folds its stream once for them, and
// multisim re-simulates the scaled machines.
func (a *Analyzer) SensitivityCtx(ctx context.Context, cats []depgraph.Flags, grid []depgraph.Alpha) ([]Curve, error) {
	if len(cats) == 0 || len(grid) == 0 {
		return nil, fmt.Errorf("cost: sensitivity needs at least one category and one grid point")
	}
	for _, f := range cats {
		if f == 0 {
			return nil, fmt.Errorf("cost: empty category in sensitivity query")
		}
	}
	n := len(cats) * len(grid)
	points := make([]CurvePoint, n)
	var base int64
	err := a.resolve(ctx, n+1, func(i int) memoKey {
		if i == n {
			return memoKey{}
		}
		id := samplePoint(cats, grid, i)
		return globalKey(id.Global, id.Scale)
	}, nil, func(i int, t int64) {
		if i == n {
			base = t
		} else {
			points[i].Time = t
		}
	})
	if err != nil {
		return nil, err
	}
	curves := make([]Curve, len(cats))
	for ci, f := range cats {
		c := Curve{Name: f.String(), Flags: f, Points: points[ci*len(grid) : (ci+1)*len(grid) : (ci+1)*len(grid)]}
		for gi, al := range grid {
			c.Points[gi].Alpha = al.Float()
			c.Points[gi].Cost = base - c.Points[gi].Time
		}
		curves[ci] = c
	}
	return curves, nil
}

// samplePoint is sample i of a sensitivity query, in category-major
// order: category i/len(grid) scaled to α = grid[i%len(grid)].
func samplePoint(cats []depgraph.Flags, grid []depgraph.Alpha, i int) depgraph.Ideal {
	f := cats[i/len(grid)]
	return depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, grid[i%len(grid)])}
}

// SamplePoints lists the idealizations a sensitivity query over cats
// and grid reads besides the base: every (category, α) sample, in the
// order SensitivityCtx reports them.
func SamplePoints(cats []depgraph.Flags, grid []depgraph.Alpha) []depgraph.Ideal {
	out := make([]depgraph.Ideal, len(cats)*len(grid))
	for i := range out {
		out[i] = samplePoint(cats, grid, i)
	}
	return out
}

// DefaultGrid is the standard five-point sensitivity grid.
func DefaultGrid() []depgraph.Alpha {
	return []depgraph.Alpha{0, depgraph.AlphaOf(0.25), depgraph.AlphaOf(0.5), depgraph.AlphaOf(0.75), depgraph.AlphaOne}
}
