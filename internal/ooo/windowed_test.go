package ooo

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/leakcheck"
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
// depgraph.WindowEval must reproduce the whole-graph scalar walk
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
			wantTimes := make([]int64, len(ids))
			for k, id := range ids {
				wantTimes[k] = want.Graph.ExecTime(id)
			}

			we, err := depgraph.NewWindowEvalIdeals(cfg.Graph, ids, n-warmup)
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
				return we.Feed(ctx, win)
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

// TestRecycledStreamSimulations: over a recycled stream — a ring of a
// few segment buffers the simulator hands back as it steps them — the
// windowed simulator emits exactly the blocks, cycles and stats it
// emits over a retained stream, and SimulateStream reproduces
// Simulate's cycles, stats and graph.
func TestRecycledStreamSimulations(t *testing.T) {
	cfg := DefaultConfig()
	const n, warmup, winInsts = 20000, 700, 300
	windows := func(w *workload.Workload, recycled bool) ([]depgraph.Window, *Result) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		open := w.ExecuteStream
		if recycled {
			open = w.ExecuteRecycled
		}
		st, err := open(ctx, n, 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		var wins []depgraph.Window
		res, err := SimulateWindowed(ctx, st, cfg, Options{Warmup: warmup}, winInsts, func(win *depgraph.Window) error {
			var c depgraph.Window
			c.CopyFrom(win)
			wins = append(wins, c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return wins, res
	}
	for _, name := range []string{"gcc", "mcf", "vortex"} {
		w, err := workload.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantWins, want := windows(w, false)
		gotWins, got := windows(w, true)
		if got.Cycles != want.Cycles || got.Stats != want.Stats {
			t.Fatalf("%s: recycled %d cycles %+v, retained %d %+v", name, got.Cycles, got.Stats, want.Cycles, want.Stats)
		}
		if !reflect.DeepEqual(gotWins, wantWins) {
			t.Fatalf("%s: recycled stream emitted different blocks", name)
		}

		tr, err := w.Execute(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Simulate(tr, cfg, Options{KeepGraph: true, Warmup: warmup})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		st, err := w.ExecuteRecycled(ctx, n, 2, 100)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		streamed, err := SimulateStream(ctx, st, cfg, Options{KeepGraph: true, Warmup: warmup})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if streamed.Cycles != full.Cycles || streamed.Stats != full.Stats ||
			!reflect.DeepEqual(streamed.Graph.RELat, full.Graph.RELat) ||
			!reflect.DeepEqual(streamed.Graph.Info, full.Graph.Info) ||
			!reflect.DeepEqual(streamed.Times.C, full.Times.C) {
			t.Fatalf("%s: SimulateStream over a recycled stream differs from Simulate", name)
		}
	}
}

// TestRecycledStreamWindowedCancel cancels windowed simulations over
// recycled streams mid-pass: each returns context.Canceled, and the
// producer — whether blocked sending a segment or waiting for a
// recycled buffer — exits with no goroutine left behind.
func TestRecycledStreamWindowedCancel(t *testing.T) {
	leakcheck.Check(t)
	w, err := workload.New("mcf", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		st, err := w.ExecuteRecycled(ctx, 1_000_000, 4, 64)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		blocks := 0
		_, err = SimulateWindowed(ctx, st, DefaultConfig(), Options{Warmup: 100}, 128, func(*depgraph.Window) error {
			if blocks++; blocks == 5+i {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: got %v, want context.Canceled", i, err)
		}
	}
}
