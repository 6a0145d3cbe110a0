package window

import (
	"context"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// FuzzWindowFold fuzzes the windowed fold's boundary-edge carry: for
// arbitrary window sizes (including pathological ones like 1, sizes
// that never divide the trace, and sizes straddling the carry depth),
// trace lengths, warmups, idealization masks and lane-group counts,
// the windowed pipeline must reproduce the whole-graph evaluation bit
// for bit. Any mishandled cross-window reference — a clamp that was
// actually binding, a ring slot read after reuse, a mispredict gate
// lost at a block's first instruction — or a block buffer recycled
// before every group folded it shows up as a divergence here. The
// replay arm records the pass into a block log and folds the input
// again from the log alone: a reference the encoding dropped while the
// fold could still read it, or a mispredict gate re-derived wrong,
// diverges too. Bits 8 and up of the seed pick the machine: the Table 6
// machine, or one whose wakeup_extra (5 or 100) voids the carry
// argument, so that its passes run at a horizon of the whole stream.
func FuzzWindowFold(f *testing.F) {
	f.Add(uint64(1), uint16(512), uint16(40), uint8(0), uint8(3), uint8(0))
	f.Add(uint64(2), uint16(1), uint16(200), uint8(0xff), uint8(0), uint8(1))
	f.Add(uint64(3), uint16(1500), uint16(977), uint8(0x24), uint8(77), uint8(2))
	f.Add(uint64(4), uint16(63), uint16(1280), uint8(0x81), uint8(200), uint8(4))
	f.Add(uint64(1<<8|5), uint16(300), uint16(1500), uint8(0x3c), uint8(20), uint8(2))
	f.Add(uint64(2<<8|6), uint16(7), uint16(700), uint8(0x81), uint8(9), uint8(3))
	machines := []ooo.Config{ooo.DefaultConfig(), ooo.DefaultConfig().WithWakeupExtra(5), ooo.DefaultConfig().WithWakeupExtra(100)}
	f.Fuzz(func(t *testing.T, seed uint64, winSel, lenSel uint16, laneMask, warmSel, groupSel uint8) {
		names := workload.Names()
		bench := names[seed%uint64(len(names))]
		req := Request{
			Bench: bench,
			Seed:  seed % 5, // bounded so workload.Cached reuses profiles
			// 200..2247 timed instructions, windows 1..2048: covers
			// window ≥ trace, window 1, and everything between.
			TraceLen:    200 + int(lenSel)%2048,
			Warmup:      int(warmSel) % 128,
			WindowInsts: 1 + int(winSel)%2048,
			Sim:         machines[(seed>>8)%uint64(len(machines))],
		}
		lanes := []depgraph.Flags{
			0,
			depgraph.Flags(laneMask) & depgraph.AllFlags,
			^depgraph.Flags(laneMask) & depgraph.AllFlags,
			depgraph.IdealWindow, // maximum carry reach
		}
		ids := make([]depgraph.Ideal, len(lanes))
		for k, fl := range lanes {
			ids[k] = depgraph.Ideal{Global: fl}
		}
		// 1..5 groups: one, an even and an uneven split, and more
		// groups than the four lanes.
		procs := 1 + int(groupSel)%5
		want, full := fullTimes(t, req, lanes)
		res, err := analyzeIdeals(context.Background(), req, ids, procs)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		if res.Cycles != full.Cycles {
			t.Fatalf("%s seed %d win %d procs %d: cycles %d != %d", bench, req.Seed, req.WindowInsts, procs, res.Cycles, full.Cycles)
		}
		var log Log
		rec, err := analyze(context.Background(), req, ids, procs, &log, nil)
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		rep, err := analyze(context.Background(), req, ids, procs, nil, &log)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		for _, r := range []struct {
			arm string
			res *Result
		}{{"windowed", res}, {"recorded", rec}, {"replayed", rep}} {
			if r.res.Cycles != full.Cycles || r.res.Windows != res.Windows {
				t.Fatalf("%s seed %d win %d procs %d: %s cycles %d over %d blocks, simulated %d over %d",
					bench, req.Seed, req.WindowInsts, procs, r.arm, r.res.Cycles, r.res.Windows, full.Cycles, res.Windows)
			}
			for k := range lanes {
				if r.res.Times[k] != want[k] {
					t.Fatalf("%s seed %d win %d len %d warm %d procs %d lane %v: %s %d != whole-graph %d",
						bench, req.Seed, req.WindowInsts, req.TraceLen, req.Warmup, procs, lanes[k], r.arm, r.res.Times[k], want[k])
				}
			}
		}
	})
}
