package ooo

import (
	"context"
	"fmt"
	"time"

	"icost/internal/depgraph"
	"icost/internal/faultinject"
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
	ring := windowedRingSize(&cfg.Graph, winInsts)
	m := newMachine(prog, cfg, opt, ring)
	m.n = n
	m.st.Insts = n
	m.mask = ring - 1
	m.horizon = cfg.Graph.Window
	m.carry = cfg.Graph.CarryDepth()
	m.windowed = true
	return m
}

// windowedRingSize picks the power-of-two ring length: it must retain
// every index the step recurrence reads back to (the re-order window
// and the bandwidth-edge spans) plus a full emission block and the
// instruction before it (for the MispPrev gate of a block's first
// instruction).
func windowedRingSize(gcfg *depgraph.Config, winInsts int) int {
	need := winInsts + 2
	for _, v := range []int{gcfg.Window + 1, gcfg.FetchBW + 1, gcfg.CommitBW + 1} {
		if v > need {
			need = v
		}
	}
	ring := 1
	for ring < need {
		ring <<= 1
	}
	return ring
}

// WindowedFootprint reports the graph-storage bytes a windowed
// simulation holds resident: the record ring (typed records plus the
// flat CSR tables the arena pre-carves) and the node-time ring. A
// function of the machine configuration and window size only — never
// of trace length — which is what lets callers budget long-trace
// analyses up front.
func WindowedFootprint(gcfg *depgraph.Config, winInsts int) int64 {
	ring := int64(windowedRingSize(gcfg, winInsts))
	const instInfoBytes = 16
	recBytes := int64(instInfoBytes + 1 + 5*4 + 3*4 + 2) // Info, DDBreak, int32 records, flat tables
	return ring*recBytes + ring*5*8                      // + five node-time columns
}

// fillWindow copies the ring records for absolute indices [lo, hi)
// into win, rebasing producer/leader references to lo and clamping
// references beyond the carry depth to NoRef (lossless — see
// windoweval.go).
func (m *machine) fillWindow(win *depgraph.Window, lo, hi int) {
	win.Resize(int64(lo), hi-lo)
	g, mask, carry := m.g, m.mask, m.carry
	for j := 0; j < win.N; j++ {
		abs := lo + j
		mi := abs & mask
		win.Info[j] = g.Info[mi]
		win.DDBreak[j] = g.DDBreak[mi]
		win.RELat[j] = g.RELat[mi]
		win.CCLat[j] = g.CCLat[mi]
		win.Prod1[j] = clampRef(g.Prod1[mi], abs, lo, carry)
		win.Prod2[j] = clampRef(g.Prod2[mi], abs, lo, carry)
		win.PPLeader[j] = clampRef(g.PPLeader[mi], abs, lo, carry)
		var mp uint8
		if abs > 0 && g.Info[(abs-1)&mask].Mispredict {
			mp = 1
		}
		win.MispPrev[j] = mp
	}
}

// clampRef rebases an absolute reference to lo, clamping absent
// references and those farther than carry behind their consumer to
// NoRef.
func clampRef(ref int32, abs, lo, carry int) int32 {
	if ref < 0 || abs-int(ref) > carry {
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
// but no graph or node times.
//
// Windowed simulation models the real machine only: opt.Ideal and
// opt.KeepGraph are rejected — idealizations are applied by the
// window evaluator's lanes, which is the point (one pass, many
// lanes). The configuration must satisfy ValidateWindowed. The
// drain-or-cancel contract matches SimulateStream.
func SimulateWindowed(ctx context.Context, st *trace.Stream, cfg Config, opt Options, winInsts int, sink func(*depgraph.Window) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Graph.ValidateWindowed(); err != nil {
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
	if opt.Warmup > 0 {
		m.touchCode()
	}
	var simNS, waitNS int64
	report := func() {
		if opt.Timing != nil {
			opt.Timing.SimNS = simNS
			opt.Timing.WaitNS = waitNS
		}
	}
	win := &depgraph.Window{}
	emitLo := 0
	idx := 0
	for {
		t0 := time.Now()
		var seg trace.Segment
		var ok bool
		select {
		case seg, ok = <-st.C:
		case <-ctx.Done():
			waitNS += time.Since(t0).Nanoseconds()
			report()
			m.abort()
			return nil, ctx.Err()
		}
		waitNS += time.Since(t0).Nanoseconds()
		if !ok {
			break
		}
		// Fault hook: same site and semantics as SimulateStream — a
		// non-ctx error leaves the stream undrained, so the caller
		// must cancel ctx to stop the producer.
		if err := faultinject.Hit(ctx, faultinject.OOOSim); err != nil {
			report()
			m.abort()
			return nil, err
		}
		t1 := time.Now()
		for k := range seg.Insts {
			din := &seg.Insts[k]
			sin := st.Prog.At(int(din.SIdx))
			if idx < opt.Warmup {
				m.warm(sin, din)
			} else {
				m.step(sin, din)
				if timed := idx - opt.Warmup + 1; timed-emitLo == winInsts {
					m.fillWindow(win, emitLo, timed)
					if err := sink(win); err != nil {
						simNS += time.Since(t1).Nanoseconds()
						report()
						m.abort()
						return nil, err
					}
					emitLo = timed
				}
			}
			idx++
		}
		simNS += time.Since(t1).Nanoseconds()
	}
	report()
	if err := st.Err(); err != nil {
		m.abort()
		return nil, err
	}
	if idx != st.Total {
		m.abort()
		return nil, fmt.Errorf("ooo: stream delivered %d of %d instructions", idx, st.Total)
	}
	// Fault hook: finalization, after the stream fully drained.
	if err := faultinject.Hit(ctx, faultinject.OOOGraph); err != nil {
		m.abort()
		return nil, err
	}
	if emitLo < n {
		m.fillWindow(win, emitLo, n)
		if err := sink(win); err != nil {
			m.abort()
			return nil, err
		}
	}
	return m.finishWindowed(), nil
}
