package ooo

import (
	"context"
	"fmt"
	"time"

	"icost/internal/faultinject"
	"icost/internal/trace"
)

// StreamTiming reports where SimulateStream's wall time went: SimNS
// simulating segments it had in hand, WaitNS blocked waiting for the
// producer. A large WaitNS means generation, not simulation, bounds
// the cold path.
type StreamTiming struct {
	SimNS  int64
	WaitNS int64
}

// SimulateStream runs the machine over a trace that is still being
// generated, consuming segments as workload.ExecuteStream emits them
// so generation and simulation overlap. The machine state itself is
// sequential — segments are simulated in stream order — and every
// instruction flows through the same incremental core as Simulate, so
// the result (times, stats, graph, execution time) is bit-identical
// to Simulate on the completed trace. Each segment is handed back to
// the stream (trace.Stream.Recycle) once stepped.
//
// On ctx cancellation or a producer error the partial simulation is
// discarded, pooled resources are returned, and the error is
// reported. SimulateStream never abandons a live stream on its own:
// on every return either the stream is fully drained or ctx is
// canceled, so a producer honoring ctx cannot leak.
func SimulateStream(ctx context.Context, st *trace.Stream, cfg Config, opt Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Warmup < 0 || opt.Warmup >= st.Total {
		return nil, fmt.Errorf("ooo: warmup %d outside trace of %d", opt.Warmup, st.Total)
	}
	m := newMachine(st.Prog, cfg, opt, st.Total-opt.Warmup)
	if err := m.consume(ctx, st, opt, 0, nil); err != nil {
		m.abort()
		return nil, err
	}
	return m.finish(opt.KeepGraph)
}

// consume drives the machine over every segment of st in stream
// order: the first opt.Warmup instructions warm the stateful
// components (after touchCode, if there are any), the rest are
// stepped, and emit runs after every every-th stepped instruction
// (never when every is 0). Each segment goes back to the stream once
// stepped, and a drained stream hands its segment ring on (Release).
// It returns nil once the stream is drained and complete, or the first
// error: ctx's, a producer's, a short stream, or emit's.
// opt.Timing, when set, receives the stage split.
func (m *machine) consume(ctx context.Context, st *trace.Stream, opt Options, every int, emit func() error) error {
	if opt.Warmup > 0 {
		m.touchCode()
	}
	var simNS, waitNS int64
	if opt.Timing != nil {
		defer func() {
			opt.Timing.SimNS = simNS
			opt.Timing.WaitNS = waitNS
		}()
	}
	next := -1 // m.i after which emit runs next
	if every > 0 {
		next = every
	}
	idx := 0
	for {
		t0 := time.Now()
		var seg trace.Segment
		var ok bool
		select {
		case seg, ok = <-st.C:
		case <-ctx.Done():
			waitNS += time.Since(t0).Nanoseconds()
			return ctx.Err()
		}
		waitNS += time.Since(t0).Nanoseconds()
		if !ok {
			break
		}
		// Fault hook: a failing or stalling simulator, once per
		// consumed segment. A non-ctx error return leaves the stream
		// undrained, so (as SimulateStream's contract requires) the
		// caller must cancel ctx to stop the producer — engine builds
		// and window passes do via their deferred cancel.
		if err := faultinject.Hit(ctx, faultinject.OOOSim); err != nil {
			return err
		}
		t1 := time.Now()
		for k := range seg.Insts {
			din := &seg.Insts[k]
			sin := st.Prog.At(int(din.SIdx))
			if idx < opt.Warmup {
				m.warm(sin, din)
			} else {
				m.step(sin, din)
				if m.i == next {
					if err := emit(); err != nil {
						simNS += time.Since(t1).Nanoseconds()
						return err
					}
					next += every
				}
			}
			idx++
		}
		simNS += time.Since(t1).Nanoseconds()
		st.Recycle(seg)
	}
	st.Release()
	if err := st.Err(); err != nil {
		return err
	}
	if idx != st.Total {
		return fmt.Errorf("ooo: stream delivered %d of %d instructions", idx, st.Total)
	}
	// Fault hook: graph finalization (replay check + assembly) — the
	// stream is fully drained by here, so this models a late build
	// failure after all the streaming work succeeded.
	return faultinject.Hit(ctx, faultinject.OOOGraph)
}
