package ooo

import (
	"context"
	"errors"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/workload"
)

// windowedLanes is the idealization-lane set the windowed golden test
// quantifies over: the real machine, every base category (including
// IdealWindow, which stretches the carry to its maximum), and unions.
func windowedLanes() []depgraph.Flags {
	lanes := []depgraph.Flags{0}
	for b := 0; b < depgraph.NumFlags; b++ {
		lanes = append(lanes, 1<<b)
	}
	return append(lanes,
		depgraph.IdealDL1|depgraph.IdealDMiss,
		depgraph.IdealBMisp|depgraph.IdealWindow|depgraph.IdealBW,
		depgraph.AllFlags,
	)
}

// TestWindowedGolden is the windowed determinism gate: for every
// benchmark, folding the emitted bounded windows through
// depgraph.WindowEval must reproduce the whole-graph batch evaluation
// bit for bit on every idealization lane — including lanes whose
// effective re-order window far exceeds the emission block — and the
// simulated cycle count and stats must match the monolithic run.
func TestWindowedGolden(t *testing.T) {
	cfg := DefaultConfig()
	const n, warmup, segLen = 2500, 500, 256
	lanes := windowedLanes()
	ids := make([]depgraph.Ideal, len(lanes))
	for k, f := range lanes {
		ids[k] = depgraph.Ideal{Global: f}
	}
	for _, name := range workload.Names() {
		for _, winInsts := range []int{256, 300} {
			w, err := workload.New(name, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr, err := w.Execute(n, 2)
			if err != nil {
				t.Fatalf("%s: execute: %v", name, err)
			}
			want, err := Simulate(tr, cfg, Options{KeepGraph: true, Warmup: warmup})
			if err != nil {
				t.Fatalf("%s: simulate: %v", name, err)
			}
			wantTimes, err := want.Graph.EvalBatch(context.Background(), ids)
			if err != nil {
				t.Fatalf("%s: batch: %v", name, err)
			}

			we, err := depgraph.NewWindowEvalIdeals(cfg.Graph, ids)
			if err != nil {
				t.Fatalf("%s: evaluator: %v", name, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			st, err := w.ExecuteStream(ctx, n, 2, segLen)
			if err != nil {
				cancel()
				t.Fatalf("%s: stream: %v", name, err)
			}
			var emitted, blocks int
			got, err := SimulateWindowed(ctx, st, cfg, Options{Warmup: warmup}, winInsts, func(win *depgraph.Window) error {
				if int(win.Lo) != emitted {
					return errors.New("window out of order")
				}
				emitted += win.N
				blocks++
				return we.Feed(win)
			})
			cancel()
			if err != nil {
				t.Fatalf("%s/win=%d: windowed: %v", name, winInsts, err)
			}
			timed := n - warmup
			if emitted != timed || we.Insts() != int64(timed) {
				t.Fatalf("%s/win=%d: emitted %d insts in %d blocks, want %d", name, winInsts, emitted, blocks, timed)
			}
			if wantBlocks := (timed + winInsts - 1) / winInsts; blocks != wantBlocks {
				t.Fatalf("%s/win=%d: %d blocks, want %d", name, winInsts, blocks, wantBlocks)
			}
			if got.Cycles != want.Cycles {
				t.Fatalf("%s/win=%d: cycles %d != %d", name, winInsts, got.Cycles, want.Cycles)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s/win=%d: stats %+v != %+v", name, winInsts, got.Stats, want.Stats)
			}
			if got.Graph != nil || got.Times != nil {
				t.Fatalf("%s/win=%d: windowed result retained graph storage", name, winInsts)
			}
			gotTimes := we.ExecTimes()
			for k := range lanes {
				if gotTimes[k] != wantTimes[k] {
					t.Fatalf("%s/win=%d lane %v: windowed %d != whole-graph %d",
						name, winInsts, lanes[k], gotTimes[k], wantTimes[k])
				}
			}
			if gotTimes[0] != got.Cycles {
				t.Fatalf("%s/win=%d: base lane %d != simulated %d", name, winInsts, gotTimes[0], got.Cycles)
			}
			depgraph.ReleaseTimes(want.Times)
			want.Graph.Release()
		}
	}
}

// TestWindowedValidation pins the windowed entry point's contract.
func TestWindowedValidation(t *testing.T) {
	cfg := DefaultConfig()
	w, err := workload.New("gcc", 9)
	if err != nil {
		t.Fatal(err)
	}
	sink := func(*depgraph.Window) error { return nil }
	run := func(cfg Config, opt Options, winInsts int, sink func(*depgraph.Window) error) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		st, err := w.ExecuteStream(ctx, 500, 10, 128)
		if err != nil {
			t.Fatal(err)
		}
		_, err = SimulateWindowed(ctx, st, cfg, opt, winInsts, sink)
		return err
	}
	if err := run(cfg, Options{Ideal: depgraph.IdealDL1}, 128, sink); err == nil {
		t.Fatal("want error for Options.Ideal")
	}
	if err := run(cfg, Options{KeepGraph: true}, 128, sink); err == nil {
		t.Fatal("want error for KeepGraph")
	}
	if err := run(cfg, Options{}, 0, sink); err == nil {
		t.Fatal("want error for zero window")
	}
	if err := run(cfg, Options{}, 128, nil); err == nil {
		t.Fatal("want error for nil sink")
	}
	if err := run(cfg, Options{Warmup: 500}, 128, sink); err == nil {
		t.Fatal("want error for warmup covering trace")
	}
	bad := cfg
	bad.Graph.WakeupExtra = bad.Graph.DispatchToReady + bad.Graph.CompleteToCommit + 1
	if err := run(bad, Options{}, 128, sink); err == nil {
		t.Fatal("want error for windowed-exactness precondition")
	}

	// A sink error aborts the simulation and surfaces verbatim.
	boom := errors.New("sink boom")
	if err := run(cfg, Options{}, 64, func(*depgraph.Window) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("sink error: got %v", err)
	}
}
