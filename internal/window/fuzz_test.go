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
// before every group folded it shows up as a divergence here.
func FuzzWindowFold(f *testing.F) {
	f.Add(uint64(1), uint16(512), uint16(40), uint8(0), uint8(3), uint8(0))
	f.Add(uint64(2), uint16(1), uint16(200), uint8(0xff), uint8(0), uint8(1))
	f.Add(uint64(3), uint16(1500), uint16(977), uint8(0x24), uint8(77), uint8(2))
	f.Add(uint64(4), uint16(63), uint16(1280), uint8(0x81), uint8(200), uint8(4))
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
			Sim:         ooo.DefaultConfig(),
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
		for k := range lanes {
			if res.Times[k] != want[k] {
				t.Fatalf("%s seed %d win %d len %d warm %d procs %d lane %v: windowed %d != whole-graph %d",
					bench, req.Seed, req.WindowInsts, req.TraceLen, req.Warmup, procs, lanes[k], res.Times[k], want[k])
			}
		}
	})
}
