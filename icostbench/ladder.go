package main

// The ladder: direct, timed calls into each library layer's public
// entry points on the workload's own session specs. It runs after the
// timed windows and prints beside the span tree; it is never
// subtracted from it.

import (
	"context"
	"sort"
	"time"

	"icost/internal/breakdown"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/ooo"
	"icost/internal/trace"
	"icost/internal/window"
	"icost/internal/workload"
)

const (
	ladderMaxInsts = 100_000 // whole-graph ladder sessions are capped at this many timed instructions
	ladderWindow   = 4096    // window size for specs that are not windowed themselves
	ladderLanes    = 16
	nodesPerInst   = 5 // D, R, E, P, C
)

// ladder maps each rung's metric name to its value.
type ladder map[string]float64

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2], nil
}

// perUnit converts a median duration of one call into ns per unit.
func perUnit(d time.Duration, units int) float64 {
	return float64(d.Nanoseconds()) / float64(units)
}

// runLadder times every rung on each spec and averages over specs.
func runLadder(ctx context.Context, specs []engine.SessionSpec, reps int) (ladder, error) {
	sum := ladder{}
	for _, s := range specs {
		l, err := ladderSpec(ctx, s, reps)
		if err != nil {
			return nil, err
		}
		for k, v := range l {
			sum[k] += v / float64(len(specs))
		}
	}
	return sum, nil
}

func ladderSpec(ctx context.Context, spec engine.SessionSpec, reps int) (ladder, error) {
	s := normSpec(spec)
	s.TraceLen = min(s.TraceLen, ladderMaxInsts)
	winInsts := s.WindowInsts
	if winInsts == 0 {
		winInsts = ladderWindow
	}
	cfg := machineOf(s)
	l := ladder{}

	// workload and ooo: streamed generation and simulation with the
	// graph kept, as a cold build does. Each stage's busy time and its
	// time blocked on the other are separate rungs, the same split as
	// the engine's Cold* counters.
	var g *depgraph.Graph
	stages := map[string][]float64{}
	for i := 0; i < reps; i++ {
		res, tm, err := simulate(ctx, s, cfg)
		if err != nil {
			return nil, err
		}
		for k, ns := range tm {
			stages[k] = append(stages[k], float64(ns))
		}
		if g != nil {
			g.Release()
		}
		g = res.Graph
	}
	defer g.Release()
	for k, ns := range stages {
		l[k] = median(ns) / float64(s.TraceLen)
	}
	nodes := g.Len() * nodesPerInst

	// depgraph: forward, backward and batched walks.
	d, err := medianTime(reps, func() error {
		_, err := g.ExecTimeCtx(ctx, depgraph.Ideal{Global: depgraph.IdealDMiss})
		return err
	})
	if err != nil {
		return nil, err
	}
	l["depgraph.forward_ns_per_node"] = perUnit(d, nodes)
	if d, err = medianTime(reps, func() error {
		_, err := g.SlacksCtx(ctx, depgraph.Ideal{})
		return err
	}); err != nil {
		return nil, err
	}
	l["depgraph.backward_ns_per_node"] = perUnit(d, nodes)
	binary := make([]depgraph.Ideal, ladderLanes)
	scaled := make([]depgraph.Ideal, ladderLanes)
	for i := range binary {
		binary[i] = depgraph.Ideal{Global: depgraph.Flags(i + 1)}
		f := depgraph.Flags(1) << (i % depgraph.NumFlags)
		a := depgraph.AlphaOf(0.25 + 0.5*float64(i/depgraph.NumFlags))
		scaled[i] = depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, a)}
	}
	for _, rung := range []struct {
		ids  []depgraph.Ideal
		name string
	}{{binary, "depgraph.batch_ns_per_lane_node"}, {scaled, "depgraph.scaled_ns_per_lane_node"}} {
		d, err := medianTime(reps, func() error {
			_, err := g.EvalBatch(ctx, rung.ids)
			return err
		})
		if err != nil {
			return nil, err
		}
		l[rung.name] = perUnit(d, ladderLanes*nodes)
	}

	// cost and breakdown: arithmetic over a warm memo.
	a := cost.New(g)
	all := make([]depgraph.Flags, 1<<depgraph.NumFlags)
	for i := range all {
		all[i] = depgraph.Flags(i)
	}
	if err := a.PrewarmCtx(ctx, all); err != nil {
		return nil, err
	}
	const calls = 200
	if d, err = medianTime(reps, func() error {
		for i := 0; i < calls; i++ {
			if _, err := a.ICostCtx(ctx, depgraph.IdealDL1, depgraph.IdealDMiss, depgraph.IdealWindow); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	l["cost.warm_icost_us"] = perUnit(d, calls) / 1e3
	cats := breakdown.BaseCategories()
	if d, err = medianTime(reps, func() error {
		for i := 0; i < calls/10; i++ {
			if _, err := breakdown.ComputeFullCtx(ctx, a, cats, s.Bench); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	l["breakdown.warm_full_us"] = perUnit(d, calls/10) / 1e3

	// window: the ring-storage simulation alone, then the same pass
	// with the engine's 256-lane fold; the difference is the fold.
	if d, err = medianTime(reps, func() error {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		st, err := openStream(ctx, s)
		if err != nil {
			return err
		}
		_, err = ooo.SimulateWindowed(ctx, st, cfg, ooo.Options{Warmup: s.Warmup}, winInsts,
			func(*depgraph.Window) error { return nil })
		return err
	}); err != nil {
		return nil, err
	}
	l["window.sim_ns_per_inst"] = perUnit(d, s.TraceLen)
	fold, err := medianTime(reps, func() error {
		_, err := window.Analyze(ctx, window.Request{
			Bench: s.Bench, Seed: s.Seed, TraceLen: s.TraceLen, Warmup: s.Warmup,
			WindowInsts: winInsts, Sim: cfg,
		}, all)
		return err
	})
	if err != nil {
		return nil, err
	}
	l["window.fold_ns_per_lane_inst"] = perUnit(fold-d, len(all)*s.TraceLen)
	return l, nil
}

// simulate runs one streamed cold build of s, keeping the graph, and
// returns each stage's time in ns, keyed by its rung name.
func simulate(ctx context.Context, s engine.SessionSpec, cfg ooo.Config) (*ooo.Result, map[string]int64, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st, err := openStream(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	var tm ooo.StreamTiming
	res, err := ooo.SimulateStream(ctx, st, cfg, ooo.Options{KeepGraph: true, Warmup: s.Warmup, Timing: &tm})
	if err != nil {
		return nil, nil, err
	}
	depgraph.ReleaseTimes(res.Times)
	res.Times = nil
	trace.ReleaseInsts(st.Trace().Insts)
	return res, map[string]int64{
		"workload.gen_ns_per_inst":       st.GenNS(),
		"workload.gen_stall_ns_per_inst": st.StallNS(),
		"ooo.sim_ns_per_inst":            tm.SimNS,
		"ooo.sim_stall_ns_per_inst":      tm.WaitNS,
	}, nil
}

// openStream starts the spec's trace generation, as a cold build does.
func openStream(ctx context.Context, s engine.SessionSpec) (*trace.Stream, error) {
	w, err := workload.Cached(s.Bench, s.Seed)
	if err != nil {
		return nil, err
	}
	return w.ExecuteStream(ctx, s.Warmup+s.TraceLen, s.Seed+1, 0)
}
