package multisim

import (
	"context"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// TestParallelBitIdentical proves the fan-out legality claim: costs
// from the worker-pool batch backend equal the serial reference for
// every power-set union, because each idealized re-simulation is an
// independent pure function of (trace, config, flags).
func TestParallelBitIdentical(t *testing.T) {
	tr, err := workload.Load("gcc", 11, 4000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ooo.DefaultConfig()
	cats := []depgraph.Flags{
		depgraph.IdealDMiss, depgraph.IdealBMisp, depgraph.IdealWindow, depgraph.IdealBW,
	}
	var unions []depgraph.Flags
	for m := 0; m < 1<<len(cats); m++ {
		var u depgraph.Flags
		for j, f := range cats {
			if m&(1<<j) != 0 {
				u |= f
			}
		}
		unions = append(unions, u)
	}

	serial, err := newWorkers(tr, cfg, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := newWorkers(tr, cfg, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := serial.PrewarmCtx(ctx, unions); err != nil {
		t.Fatal(err)
	}
	if err := parallel.PrewarmCtx(ctx, unions); err != nil {
		t.Fatal(err)
	}
	for _, u := range unions {
		if s, p := serial.ExecTime(u), parallel.ExecTime(u); s != p {
			t.Errorf("union %v: serial %d cycles, parallel %d", u, s, p)
		}
	}
	for _, c := range cats {
		if s, p := serial.Cost(c), parallel.Cost(c); s != p {
			t.Errorf("cost(%v): serial %d, parallel %d", c, s, p)
		}
	}
	s, err := serial.ICost(cats[0], cats[1])
	if err != nil {
		t.Fatal(err)
	}
	p, err := parallel.ICost(cats[0], cats[1])
	if err != nil {
		t.Fatal(err)
	}
	if s != p {
		t.Errorf("icost: serial %d, parallel %d", s, p)
	}
}

// TestParallelCancel checks the batch backend honors ctx: a canceled
// context fails the prewarm instead of running the fleet.
func TestParallelCancel(t *testing.T) {
	tr, err := workload.Load("mcf", 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newWorkers(tr, ooo.DefaultConfig(), 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.PrewarmCtx(ctx, []depgraph.Flags{depgraph.IdealDMiss, depgraph.IdealBMisp}); err == nil {
		t.Fatal("expected context error from canceled prewarm")
	}
}
