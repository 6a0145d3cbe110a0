package multisim

import (
	"context"
	"testing"

	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

func TestResimCostsMatchDirectSimulation(t *testing.T) {
	tr, err := workload.Load("gzip", 1, 8000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ooo.DefaultConfig()
	a, err := New(tr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ooo.Simulate(tr, cfg, ooo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.BaseTime() != base.Cycles {
		t.Fatalf("base %d != sim %d", a.BaseTime(), base.Cycles)
	}
	ideal, err := ooo.Simulate(tr, cfg, ooo.Options{Ideal: depgraph.IdealDMiss})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Cost(depgraph.IdealDMiss); got != base.Cycles-ideal.Cycles {
		t.Fatalf("cost %d != %d", got, base.Cycles-ideal.Cycles)
	}
}

func TestResimCloseToGraphAnalysis(t *testing.T) {
	// The graph freezes arbitration; resimulation redoes it. The two
	// must agree closely (the paper reports ~11% average error for a
	// much coarser graph model; ours is near-exact by construction).
	tr, err := workload.Load("parser", 1, 12000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ooo.DefaultConfig()
	ms, err := New(tr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ooo.Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ga := cost.New(res.Graph)
	if ga.BaseTime() != ms.BaseTime() {
		t.Fatalf("base disagreement: graph %d, resim %d", ga.BaseTime(), ms.BaseTime())
	}
	for _, f := range []depgraph.Flags{
		depgraph.IdealDL1, depgraph.IdealDMiss, depgraph.IdealBMisp,
		depgraph.IdealWindow, depgraph.IdealBW,
	} {
		cg, cm := ga.Cost(f), ms.Cost(f)
		diff := cg - cm
		if diff < 0 {
			diff = -diff
		}
		// Within 10% of total time of each other.
		if float64(diff) > 0.10*float64(ga.BaseTime()) {
			t.Errorf("cost(%v): graph %d vs resim %d (base %d)", f, cg, cm, ga.BaseTime())
		}
	}
}

func TestGuards(t *testing.T) {
	tr, err := workload.Load("gzip", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	bad := ooo.DefaultConfig()
	bad.Graph.DL1Latency = 99
	if _, err := New(tr, bad, 0); err == nil {
		t.Fatal("accepted inconsistent config")
	}
	tr.Insts = nil
	if _, err := New(tr, ooo.DefaultConfig(), 0); err == nil {
		t.Fatal("accepted empty trace")
	}
}

func TestEventSetMethodsPanicWithoutGraph(t *testing.T) {
	tr, err := workload.Load("gzip", 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(tr, ooo.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CostSet on resim analyzer did not panic")
		}
	}()
	a.CostSet(depgraph.Ideal{Global: depgraph.IdealDMiss})
}

// knobFlags are the category sets whose interior α the simulator
// re-creates: the refutation harness's four knobs.
var knobFlags = []depgraph.Flags{
	depgraph.IdealDL1, depgraph.IdealDMiss | depgraph.IdealICache, depgraph.IdealBMisp, depgraph.IdealWindow,
}

// TestKnobScaledConfigsValidate: every knob's scaled machine must be
// a valid configuration at every interior grid α (latency agreement
// between graph and cache included), idealizing nothing outright.
func TestKnobScaledConfigsValidate(t *testing.T) {
	base := ooo.DefaultConfig()
	for _, f := range knobFlags {
		for _, a := range []depgraph.Alpha{depgraph.AlphaOf(0.25), depgraph.AlphaOf(0.5), depgraph.AlphaOf(0.75)} {
			cfg, ideal, err := machine(base, depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, a)})
			if err != nil {
				t.Fatalf("%v α=%v: %v", f, a.Float(), err)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("%v α=%v: %v", f, a.Float(), err)
			}
			if ideal != 0 {
				t.Errorf("%v α=%v idealizes %v outright", f, a.Float(), ideal)
			}
		}
	}
}

// TestScaledResimMatchesDirect: an interior-α idealization
// re-simulates the scaled machine — the same cycles as simulating that
// configuration directly — for each knob, through the analyzer's
// sensitivity curves, and for dmiss at an interior α beside imiss
// idealized outright, through the backend.
func TestScaledResimMatchesDirect(t *testing.T) {
	tr, err := workload.Load("mcf", 2, 3000)
	if err != nil {
		t.Fatal(err)
	}
	base := ooo.DefaultConfig()
	const warmup = 500
	a, err := New(tr, base, warmup)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(cfg ooo.Config, ideal depgraph.Flags) int64 {
		res, err := ooo.Simulate(tr, cfg, ooo.Options{Ideal: ideal, Warmup: warmup})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	half := depgraph.AlphaOf(0.5)
	g := base.Graph
	mem := base.WithL2Latency(depgraph.ScaleLatency(g.L2Latency, half)).
		WithMemLatency(depgraph.ScaleLatency(g.MemLatency, half)).
		WithTLBMissLatency(depgraph.ScaleLatency(g.TLBMissLatency, half))
	want := []int64{
		direct(base.WithDL1Latency(depgraph.ScaleLatency(g.DL1Latency, half)), 0),
		direct(mem, 0),
		direct(base.WithBranchRecovery(depgraph.ScaleLatency(g.BranchRecovery, half)), 0),
		direct(base.WithWindow(g.EffWindow(half)), 0),
	}
	curves, err := a.SensitivityCtx(context.Background(), knobFlags, []depgraph.Alpha{half})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range curves {
		if want[i] == a.BaseTime() {
			t.Fatalf("%v α=0.5: the scaled machine runs the base's %d cycles; the check is vacuous", c.Flags, want[i])
		}
		if got := c.Points[0].Time; got != want[i] {
			t.Errorf("%v α=0.5: re-simulated %d cycles, direct %d", c.Flags, got, want[i])
		}
	}

	mixed := depgraph.Ideal{Global: depgraph.IdealDMiss | depgraph.IdealICache}
	mixed.Scale[1] = half // dmiss; imiss stays at α=0
	times, err := resim(tr, base, warmup, 1)(context.Background(), []depgraph.Ideal{mixed})
	if err != nil {
		t.Fatal(err)
	}
	if w := direct(mem, depgraph.IdealICache); times[0] != w {
		t.Fatalf("dmiss α=0.5 beside imiss α=0: re-simulated %d cycles, direct %d", times[0], w)
	}
}

// TestResimRejectsInexpressible: every idealization the simulator has
// no counterpart for fails its batch with an error, through the
// backend and through the analyzer alike, and nothing panics.
func TestResimRejectsInexpressible(t *testing.T) {
	tr, err := workload.Load("gzip", 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ooo.DefaultConfig()
	half, quarter := depgraph.AlphaOf(0.5), depgraph.AlphaOf(0.25)
	scaled := func(f depgraph.Flags, a depgraph.Alpha) depgraph.Ideal {
		return depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, a)}
	}
	split := scaled(depgraph.IdealDMiss|depgraph.IdealICache, half)
	split.Scale[2] = quarter // imiss
	eval := resim(tr, cfg, 0, 2)
	for name, id := range map[string]depgraph.Ideal{
		"per-instruction set": {PerInst: make([]depgraph.Flags, tr.Len()), Global: depgraph.IdealDMiss},
		"bw α=0.5":            scaled(depgraph.IdealBW, half),
		"shalu α=0.5":         scaled(depgraph.IdealShortALU, half),
		"lgalu α=0.5":         scaled(depgraph.IdealLongALU, half),
		"dmiss α=0.5 alone":   scaled(depgraph.IdealDMiss, half),
		"imiss α=0.5 alone":   scaled(depgraph.IdealICache, half),
		"dmiss/imiss split α": split,
	} {
		if _, err := eval(context.Background(), []depgraph.Ideal{{Global: depgraph.IdealDL1}, id}); err == nil {
			t.Errorf("%s: re-simulated, want an error", name)
		}
	}
	a, err := New(tr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SensitivityCtx(context.Background(), []depgraph.Flags{depgraph.IdealBW}, []depgraph.Alpha{half}); err == nil {
		t.Fatal("sensitivity of bw at α=0.5 re-simulated, want an error")
	}
	if c, err := a.SensitivityCtx(context.Background(), []depgraph.Flags{depgraph.IdealBW}, []depgraph.Alpha{0, depgraph.AlphaOne}); err != nil ||
		c[0].Points[0].Cost != a.Cost(depgraph.IdealBW) || c[0].Points[1].Cost != 0 {
		t.Fatalf("bw at the endpoints: %+v, %v", c, err)
	}
}

// TestResimFailureIsError: a re-simulation that fails — here because
// the trace was cut below the warmup after the analyzer checked it —
// returns an error to the caller instead of panicking in a worker.
func TestResimFailureIsError(t *testing.T) {
	tr, err := workload.Load("gzip", 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(tr, ooo.DefaultConfig(), 200)
	if err != nil {
		t.Fatal(err)
	}
	tr.Insts = tr.Insts[:100]
	if _, err := a.ExecTimeCtx(context.Background(), depgraph.IdealDMiss); err == nil {
		t.Fatal("a failed re-simulation answered")
	}
	if err := a.PrewarmCtx(context.Background(), []depgraph.Flags{0, depgraph.IdealDL1, depgraph.IdealBMisp}); err == nil {
		t.Fatal("a failed batch of re-simulations answered")
	}
}
