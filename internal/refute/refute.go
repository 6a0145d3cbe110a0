// Package refute is the model-vs-simulator refutation harness: the
// repo's analogue of CounterPoint's refute-and-refine loop. The graph
// model predicts how execution time responds to scaling an event
// category's latency by α; the out-of-order simulator, reconfigured to
// the same scaled machine, is ground truth. For each sampled
// (benchmark, knob, α) point the harness records the relative error
// between prediction and re-simulation, and the maximum per knob — the
// error envelope — is committed to BENCH_sens.json, where CI's
// TestRefuteEnvelopeGuard refuses any regression. A model change that
// silently widens the model/machine gap therefore cannot land without
// the envelope being deliberately regenerated and reviewed.
//
// Both sides are one question to two backends: the same sensitivity
// query to a graph analyzer (cost.New) and to a re-simulation analyzer
// (multisim), which maps every α onto a machine. Endpoints are exact by
// construction elsewhere (α=1 is the unidealized graph, whose critical
// path equals simulated cycles; α=0 is the paper's binary
// idealization) — but note α=0 truth is re-simulated with the machine
// re-arbitrating structural resources, which is precisely the
// second-order effect the graph analysis approximates away (paper
// Table 7). Interior α points re-simulate with scaled configuration
// latencies, exposing the same class of approximation along the whole
// curve.
package refute

import (
	"context"
	"fmt"
	"math"

	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/multisim"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// Knob is one scalable machine axis: the graph-model categories it
// scales. Package multisim derives the equivalently scaled simulator
// configuration for every α.
type Knob struct {
	Name  string
	Flags depgraph.Flags
}

// Knobs returns the standard refutation axes: the four knobs the
// paper's Section 4 experiments turn, expressed parametrically.
func Knobs() []Knob {
	return []Knob{
		{Name: "dl1", Flags: depgraph.IdealDL1},
		// mem scales everything beyond L1 — the additive L2, memory
		// and TLB-miss latencies feed both the dmiss and imiss
		// decomposition columns, so the knob covers both categories.
		{Name: "mem", Flags: depgraph.IdealDMiss | depgraph.IdealICache},
		{Name: "bmisp", Flags: depgraph.IdealBMisp},
		{Name: "win", Flags: depgraph.IdealWindow},
	}
}

// Sample is one refutation point.
type Sample struct {
	Bench  string  `json:"bench"`
	Seed   uint64  `json:"seed"`
	Knob   string  `json:"knob"`
	Alpha  float64 `json:"alpha"`
	Truth  int64   `json:"truth"` // re-simulated cycles, ground truth
	Pred   int64   `json:"pred"`  // graph-model predicted cycles
	RelErr float64 `json:"rel_err"`
}

// Report is a full harness run.
type Report struct {
	// Insts is the per-benchmark trace length sampled.
	Insts int `json:"insts"`
	// Envelope is the maximum relative error observed per knob — the
	// accuracy bound the guard enforces and icostd advertises.
	Envelope map[string]float64 `json:"envelope"`
	// Samples are every point behind the envelope, for inspection.
	Samples []Sample `json:"samples"`
}

// Point identifies one (benchmark, seed) microexecution to refute.
type Point struct {
	Bench string
	Seed  uint64
}

// DefaultPoints are the harness's standard sample set: one
// compute-bound and one memory-bound benchmark.
func DefaultPoints() []Point {
	return []Point{{Bench: "gzip", Seed: 1}, {Bench: "mcf", Seed: 2}}
}

// DefaultRefuteGrid is the α sample grid: both exact endpoints plus
// the midpoint, where configuration-scaling disagreement peaks.
func DefaultRefuteGrid() []depgraph.Alpha {
	return []depgraph.Alpha{0, depgraph.AlphaOf(0.5), depgraph.AlphaOne}
}

// Run refutes the graph model against the simulator on every
// (point, knob, α) combination: prediction and truth are the same
// sensitivity query, asked of a graph analyzer over the base
// microexecution and of a multisim analyzer that re-simulates each
// scaled machine.
func Run(ctx context.Context, pts []Point, knobs []Knob, grid []depgraph.Alpha, insts int) (*Report, error) {
	if len(pts) == 0 || len(knobs) == 0 || len(grid) == 0 || insts <= 0 {
		return nil, fmt.Errorf("refute: need points, knobs, a grid and a positive trace length")
	}
	rep := &Report{Insts: insts, Envelope: map[string]float64{}}
	base := ooo.DefaultConfig()
	cats := make([]depgraph.Flags, len(knobs))
	for i, k := range knobs {
		cats[i] = k.Flags
	}
	for _, pt := range pts {
		tr, err := workload.Load(pt.Bench, pt.Seed, insts)
		if err != nil {
			return nil, err
		}
		res, err := ooo.Run(tr, base)
		if err != nil {
			return nil, err
		}
		preds, err := cost.New(res.Graph).SensitivityCtx(ctx, cats, grid)
		if err != nil {
			return nil, err
		}
		ms, err := multisim.New(tr, base, 0)
		if err != nil {
			return nil, err
		}
		truths, err := ms.SensitivityCtx(ctx, cats, grid)
		if err != nil {
			return nil, err
		}
		for ki, k := range knobs {
			if _, ok := rep.Envelope[k.Name]; !ok {
				rep.Envelope[k.Name] = 0 // a knob with zero error still gets a recorded bound
			}
			for gi, a := range grid {
				pred, truth := preds[ki].Points[gi].Time, truths[ki].Points[gi].Time
				relErr := math.Abs(float64(pred-truth)) / math.Max(float64(truth), 1)
				rep.Samples = append(rep.Samples, Sample{
					Bench: pt.Bench, Seed: pt.Seed, Knob: k.Name,
					Alpha: a.Float(), Truth: truth, Pred: pred, RelErr: relErr,
				})
				if relErr > rep.Envelope[k.Name] {
					rep.Envelope[k.Name] = relErr
				}
			}
		}
	}
	return rep, nil
}
