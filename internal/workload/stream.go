package workload

import (
	"context"
	"fmt"

	"icost/internal/faultinject"
	"icost/internal/trace"
)

// DefaultSegLen is the segment granularity of ExecuteStream when the
// caller passes segLen <= 0: large enough to amortize channel
// handoffs, small enough that the consumer starts simulating long
// before generation finishes.
const DefaultSegLen = 1024

// streamBuffer is the segment-channel depth: a few segments of slack
// so neither stage stalls on momentary speed differences.
const streamBuffer = 4

// ExecuteStream is Execute as a pipeline stage: it starts a producer
// goroutine interpreting the workload and returns a retained
// trace.Stream whose segments arrive while generation is still
// running. The dynamic stream is bit-identical to Execute(n, seed) —
// both run the same interpreter core — and lands in one pooled backing
// array (trace.AcquireInsts); the completed trace owns it, and whoever
// retires the trace may hand it back via trace.ReleaseInsts.
//
// The producer stops when ctx is canceled; the consumer then sees C
// close with Err() = ctx.Err(). Callers that abandon the stream early
// must cancel ctx, or the producer blocks forever on a full channel.
func (w *Workload) ExecuteStream(ctx context.Context, n int, seed uint64, segLen int) (*trace.Stream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload %s: non-positive trace length %d", w.Prof.Name, n)
	}
	if segLen <= 0 {
		segLen = DefaultSegLen
	}
	st, wr := trace.NewStream(w.Prog, w.Prof.Name, n, streamBuffer)
	go func() {
		backing := trace.AcquireInsts(n)[:n]
		err := w.produce(ctx, wr, n, seed, segLen, func(lo, hi int) ([]trace.DynInst, error) {
			return backing[lo:hi:hi], nil
		})
		if err != nil {
			wr.Close(nil, err)
			return
		}
		wr.Close(&trace.Trace{Prog: w.Prog, Insts: backing, Name: w.Prof.Name}, nil)
	}()
	return st, nil
}

// ExecuteRecycled is ExecuteStream over a recycled trace.Stream: the
// same bit-identical dynamic stream, carried in a small fixed ring of
// segment buffers that the consumer hands back with Stream.Recycle, so
// generation holds a few segments' worth of instructions however long
// the trace. There is no completed trace. The cancellation contract is
// ExecuteStream's; a consumer that stops recycling without canceling
// ctx stalls the producer the same way.
func (w *Workload) ExecuteRecycled(ctx context.Context, n int, seed uint64, segLen int) (*trace.Stream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload %s: non-positive trace length %d", w.Prof.Name, n)
	}
	if segLen <= 0 {
		segLen = DefaultSegLen
	}
	st, wr := trace.NewRecycledStream(w.Prog, w.Prof.Name, n, streamBuffer, segLen)
	go func() {
		wr.Close(nil, w.produce(ctx, wr, n, seed, segLen, func(lo, hi int) ([]trace.DynInst, error) {
			b, err := wr.Buffer(ctx)
			if err != nil {
				return nil, err
			}
			return b[:hi-lo], nil
		}))
	}()
	return st, nil
}

// produce interprets n instructions in segLen-instruction segments,
// each into the storage seg returns for its index range, and sends
// them in order on wr.
func (w *Workload) produce(ctx context.Context, wr *trace.StreamWriter, n int, seed uint64, segLen int,
	seg func(lo, hi int) ([]trace.DynInst, error)) error {
	it := w.newInterp(seed)
	for lo := 0; lo < n; lo += segLen {
		hi := min(lo+segLen, n)
		buf, err := seg(lo, hi)
		if err != nil {
			return err
		}
		if err := it.fill(buf); err != nil {
			return err
		}
		// Fault hook: a failing or stalling generator, once per
		// emitted segment. The error travels to the consumer via the
		// stream's Close, like any real interpreter fault.
		if err := faultinject.Hit(ctx, faultinject.WorkloadGen); err != nil {
			return err
		}
		if err := wr.Send(ctx, trace.Segment{Base: lo, Insts: buf}); err != nil {
			return err
		}
	}
	return nil
}

// OpenStream is Load as a pipeline stage: it generates benchmark name
// with the given seed and streams n executed instructions, with the
// same seed derivation as Load (execution seed = seed+1).
func OpenStream(ctx context.Context, name string, seed uint64, n, segLen int) (*trace.Stream, error) {
	w, err := New(name, seed)
	if err != nil {
		return nil, err
	}
	return w.ExecuteStream(ctx, n, seed+1, segLen)
}
