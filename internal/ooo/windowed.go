package ooo

import (
	"context"
	"fmt"

	"icost/internal/depgraph"
	"icost/internal/program"
	"icost/internal/trace"
)

// Windowed simulation for long traces. Simulate and SimulateStream
// keep the whole dependence graph and node-time arrays resident —
// ~96 bytes per instruction, which rules out traces of tens of
// millions of instructions. SimulateWindowed runs the exact same
// incremental core over ring-buffer storage sized by the machine
// configuration, emitting bounded depgraph.Window blocks of records
// to a sink as it goes; a depgraph.WindowEval folding those blocks
// reproduces the whole-graph walk bit for bit (the carry analysis in
// windoweval.go, proven by the window package's tests and fuzzer).
// Peak graph memory is O(ring + window block), independent of trace
// length.

// newWindowedMachine builds the ring-storage variant of the machine
// for n timed instructions with winInsts-instruction emission blocks.
func newWindowedMachine(prog *program.Program, cfg Config, opt Options, n, winInsts int) *machine {
	ring := windowedRingSize(&cfg.Graph, winInsts, n)
	m := newMachine(prog, cfg, opt, ring)
	m.n = n
	m.st.Insts = n
	m.mask = ring - 1
	m.horizon = cfg.Graph.Horizon(n)
	m.windowed = true
	return m
}

// windowedRingSize picks the power-of-two ring length for a pass of n
// timed instructions: it must retain every index the step recurrence
// reads back to (the horizon, depgraph.Config.Horizon, and the
// bandwidth-edge spans) plus a full emission block and the instruction
// before it (for the MispPrev gate of a block's first instruction). A
// ring of n slots holds the whole pass and never wraps, so no pass
// needs more, whatever the window; a machine outside the carry
// argument gets exactly that.
func windowedRingSize(gcfg *depgraph.Config, winInsts, n int) int {
	need := winInsts + 2
	for _, v := range []int{gcfg.Horizon(n) + 1, gcfg.FetchBW + 1, gcfg.CommitBW + 1} {
		if v > need {
			need = v
		}
	}
	need = min(need, n)
	ring := 1
	for ring < need {
		ring <<= 1
	}
	return ring
}

// WindowedFootprint reports the graph-storage bytes a windowed
// simulation of n timed instructions holds resident: the record ring
// (typed records plus the flat CSR tables the arena pre-carves) and the
// node-time ring. Bounded by the machine configuration and window size
// whatever the trace length, which is what lets callers budget
// long-trace analyses up front.
func WindowedFootprint(gcfg *depgraph.Config, winInsts, n int) int64 {
	ring := int64(windowedRingSize(gcfg, winInsts, n))
	const instInfoBytes = 16
	recBytes := int64(instInfoBytes + 1 + 5*4 + 3*4 + 2) // Info, DDBreak, int32 records, flat tables
	return ring*recBytes + ring*5*8                      // + five node-time columns
}

// fillWindow copies the ring records for absolute indices [lo, hi)
// into win, rebasing producer/leader references to lo. References
// reach as far back as the trace does; the fold ignores those beyond
// its carry depth (windoweval.go).
func (m *machine) fillWindow(win *depgraph.Window, lo, hi int) {
	win.Resize(int64(lo), hi-lo)
	g, mask := m.g, m.mask
	for j := 0; j < win.N; j++ {
		abs := lo + j
		mi := abs & mask
		win.Info[j] = g.Info[mi]
		win.DDBreak[j] = g.DDBreak[mi]
		win.RELat[j] = g.RELat[mi]
		win.CCLat[j] = g.CCLat[mi]
		win.Prod1[j] = rebaseRef(g.Prod1[mi], lo)
		win.Prod2[j] = rebaseRef(g.Prod2[mi], lo)
		win.PPLeader[j] = rebaseRef(g.PPLeader[mi], lo)
		var mp uint8
		if abs > 0 && g.Info[(abs-1)&mask].Mispredict {
			mp = 1
		}
		win.MispPrev[j] = mp
	}
}

// rebaseRef rebases an absolute reference to lo; an absent one becomes
// NoRef.
func rebaseRef(ref int32, lo int) int32 {
	if ref < 0 {
		return depgraph.NoRef
	}
	return int32(int(ref) - lo)
}

// finishWindowed assembles the windowed result. There is no full
// graph to replay — the windowed exactness check lives with the
// caller, who compares its base evaluation lane against the simulated
// cycle count (window.Analyze does).
func (m *machine) finishWindowed() *Result {
	res := &Result{Stats: m.st}
	if m.n > 0 {
		res.Cycles = m.times.C[(m.n-1)&m.mask] + 1
	}
	releaseSimMaps(m.maps)
	m.maps = nil
	m.drop()
	return res
}

// SimulateWindowed runs the machine over a streaming trace with
// bounded-memory ring storage, delivering winInsts-instruction Window
// blocks to sink in stream order (the final block may be shorter).
// The sink must consume the block before returning — the machine
// reuses the backing arrays for the next block — and a sink error
// aborts the simulation. The returned Result carries cycles and stats
// but no graph or node times. Each trace segment is handed back to the
// stream once stepped, so over a recycled stream
// (workload.ExecuteRecycled) the trace, like the graph, is held a few
// segments at a time.
//
// Windowed simulation models the real machine only: opt.Ideal and
// opt.KeepGraph are rejected — idealizations are applied by the
// window evaluator's lanes, which is the point (one pass, many
// lanes). A configuration outside the carry argument
// (depgraph.Config.ValidateWindowed) runs at a horizon of the whole
// pass, in a ring of n slots. The drain-or-cancel contract matches
// SimulateStream.
func SimulateWindowed(ctx context.Context, st *trace.Stream, cfg Config, opt Options, winInsts int, sink func(*depgraph.Window) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Ideal != 0 {
		return nil, fmt.Errorf("ooo: windowed simulation models the real machine; apply idealizations in the window evaluator, not Options.Ideal")
	}
	if opt.KeepGraph {
		return nil, fmt.Errorf("ooo: windowed simulation keeps no whole-trace graph")
	}
	if winInsts < 1 {
		return nil, fmt.Errorf("ooo: window of %d instructions", winInsts)
	}
	if sink == nil {
		return nil, fmt.Errorf("ooo: windowed simulation needs a sink")
	}
	if opt.Warmup < 0 || opt.Warmup >= st.Total {
		return nil, fmt.Errorf("ooo: warmup %d outside trace of %d", opt.Warmup, st.Total)
	}
	n := st.Total - opt.Warmup
	m := newWindowedMachine(st.Prog, cfg, opt, n, winInsts)
	win := &depgraph.Window{}
	err := m.consume(ctx, st, opt, winInsts, func() error {
		m.fillWindow(win, m.i-winInsts, m.i)
		return sink(win)
	})
	if lo := n - n%winInsts; err == nil && lo < n {
		m.fillWindow(win, lo, n)
		err = sink(win)
	}
	if err != nil {
		m.abort()
		return nil, err
	}
	return m.finishWindowed(), nil
}
