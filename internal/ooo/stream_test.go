package ooo

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"icost/internal/depgraph"
	"icost/internal/workload"
)

// TestStreamGolden is the pipeline determinism gate: for every
// bundled benchmark and several seeds, the streamed build — generator
// goroutine feeding segments to the incremental simulator — must be
// bit-identical to the monolithic Execute+Simulate path in every
// observable: the trace itself, execution time, functional stats,
// all five node-time arrays, and every per-instruction graph record.
func TestStreamGolden(t *testing.T) {
	cfg := DefaultConfig()
	const n, warmup, segLen = 2500, 500, 256
	for _, name := range workload.Names() {
		for seed := uint64(1); seed <= 3; seed++ {
			w, err := workload.New(name, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr, err := w.Execute(n, seed+1)
			if err != nil {
				t.Fatalf("%s/%d: execute: %v", name, seed, err)
			}
			want, err := Simulate(tr, cfg, Options{KeepGraph: true, Warmup: warmup})
			if err != nil {
				t.Fatalf("%s/%d: simulate: %v", name, seed, err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			st, err := w.ExecuteStream(ctx, n, seed+1, segLen)
			if err != nil {
				cancel()
				t.Fatalf("%s/%d: stream: %v", name, seed, err)
			}
			var tm StreamTiming
			got, err := SimulateStream(ctx, st, cfg, Options{KeepGraph: true, Warmup: warmup, Timing: &tm})
			cancel()
			if err != nil {
				t.Fatalf("%s/%d: simulate stream: %v", name, seed, err)
			}
			if !reflect.DeepEqual(st.Trace().Insts, tr.Insts) {
				t.Fatalf("%s/%d: streamed trace differs from monolithic", name, seed)
			}
			if got.Cycles != want.Cycles {
				t.Fatalf("%s/%d: cycles %d != %d", name, seed, got.Cycles, want.Cycles)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s/%d: stats %+v != %+v", name, seed, got.Stats, want.Stats)
			}
			// The five columns, not the Times structs: those also point
			// at their pooled scratch, whose recycled contents depend on
			// which arena the pool handed out.
			gt, wt := got.Times, want.Times
			if !reflect.DeepEqual([][]int64{gt.D, gt.R, gt.E, gt.P, gt.C}, [][]int64{wt.D, wt.R, wt.E, wt.P, wt.C}) {
				t.Fatalf("%s/%d: node times differ", name, seed)
			}
			gg, wg := got.Graph, want.Graph
			if !reflect.DeepEqual(gg.Info, wg.Info) ||
				!reflect.DeepEqual(gg.DDBreak, wg.DDBreak) ||
				!reflect.DeepEqual(gg.RELat, wg.RELat) ||
				!reflect.DeepEqual(gg.CCLat, wg.CCLat) ||
				!reflect.DeepEqual(gg.Prod1, wg.Prod1) ||
				!reflect.DeepEqual(gg.Prod2, wg.Prod2) ||
				!reflect.DeepEqual(gg.PPLeader, wg.PPLeader) {
				t.Fatalf("%s/%d: graph records differ", name, seed)
			}
			if tm.SimNS <= 0 {
				t.Fatalf("%s/%d: stream timing not reported: %+v", name, seed, tm)
			}
			if st.GenNS() <= 0 {
				t.Fatalf("%s/%d: producer timing not reported", name, seed)
			}
		}
	}
}

// TestStreamIdealized checks that idealized streaming simulations
// (the multisim path) also match the monolithic machine.
func TestStreamIdealized(t *testing.T) {
	cfg := DefaultConfig()
	w, err := workload.New("mcf", 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Execute(3000, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []depgraph.Flags{depgraph.IdealDMiss, depgraph.IdealBMisp | depgraph.IdealWindow, depgraph.AllFlags} {
		opt := Options{Ideal: f, Warmup: 500}
		want, err := Simulate(tr, cfg, opt)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		st, err := w.ExecuteStream(ctx, 3000, 6, 512)
		if err != nil {
			cancel()
			t.Fatalf("%v: %v", f, err)
		}
		got, err := SimulateStream(ctx, st, cfg, opt)
		cancel()
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if got.Cycles != want.Cycles || got.Stats != want.Stats {
			t.Fatalf("%v: streamed %d cycles, monolithic %d", f, got.Cycles, want.Cycles)
		}
	}
}

// TestStreamCancel cancels mid-pipeline and verifies both stages shut
// down without leaking the producer goroutine.
func TestStreamCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := workload.New("mcf", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Tiny segments and a big trace guarantee the producer is
		// still mid-stream when the cancel lands.
		st, err := w.ExecuteStream(ctx, 200000, 4, 64)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { // consumed below; test owns its lifetime
			_, err := SimulateStream(ctx, st, cfg, Options{Warmup: 1000})
			done <- err
		}()
		time.Sleep(time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: got %v, want context.Canceled", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: pipeline did not shut down after cancel", i)
		}
	}
	// The producer goroutines must all have exited; give the runtime
	// a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellations", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamAbandonedWithCancel covers the consumer-error path: a
// caller that abandons a stream (here: bad options) must cancel ctx,
// after which the producer exits and the stream reports the
// cancellation.
func TestStreamAbandonedWithCancel(t *testing.T) {
	w, err := workload.New("gcc", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st, err := w.ExecuteStream(ctx, 100000, 3, 64)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Warmup out of range: SimulateStream rejects before consuming.
	if _, err := SimulateStream(ctx, st, DefaultConfig(), Options{Warmup: 200000}); err == nil {
		t.Fatal("expected warmup validation error")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := <-st.C; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("producer did not close stream after cancel")
		}
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", st.Err())
	}
}
