package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icost/internal/program"
)

// Segment is one contiguous chunk of a dynamic instruction stream:
// segment k covers dynamic indices [Base, Base+len(Insts)).
type Segment struct {
	Base  int
	Insts []DynInst
}

// Stream delivers a trace incrementally while it is still being
// generated, so a consumer (ooo.SimulateStream, ooo.SimulateWindowed)
// can overlap simulation with generation instead of waiting for the
// whole trace. Segments arrive on C in stream order; after C is
// closed, Err reports how the producer finished and Trace returns the
// completed trace, if the stream keeps one.
//
// A stream stores its instructions one of two ways:
//   - Retained (NewStream): every segment is a window into one backing
//     array with capacity fixed at the total length, which becomes the
//     completed trace. Segment slices stay valid (and immutable) for
//     the life of the trace, so a consumer may keep them.
//   - Recycled (NewRecycledStream): segments are carved from a small
//     fixed ring of buffers, so a stream of any length holds a few
//     segments' worth of instructions. A consumer must be done with a
//     segment when it hands it back with Recycle, must hand back every
//     segment it receives, and must not keep the slice; the producer
//     refills the buffer for a later segment. There is no completed
//     trace. A consumer that drains the stream hands the ring on to the
//     next recycled stream with Release.
//
// Recycle is a no-op on a retained stream, so a consumer that recycles
// every segment it has stepped works on either kind. Channel sends
// order the producer's writes before the consumer's reads, and a
// recycled buffer's return orders the consumer's reads before the
// producer's refill; the close of C orders the final Trace/Err
// publication.
type Stream struct {
	// Prog is the static program, available before any segment.
	Prog *program.Program
	// Name labels the workload, as on Trace.
	Name string
	// Total is the number of dynamic instructions the stream will
	// carry if generation completes without error.
	Total int
	// C carries the segments. It is closed when the producer is done,
	// whether by completion, error, or cancellation.
	C <-chan Segment

	// ring is a recycled stream's segment ring; nil on a retained
	// stream, and once Release has handed the ring on.
	ring *segRing
	// closed is set by Close before C closes.
	closed atomic.Bool

	genNS   atomic.Int64
	stallNS atomic.Int64

	full *Trace
	err  error
}

// segRing is a recycled stream's fixed set of segment buffers. free
// holds the idle ones; its capacity is the ring size, so Recycle never
// blocks.
type segRing struct {
	free   chan []DynInst
	segLen int
}

// ringPool holds the segment rings of drained recycled streams for the
// next stream to reuse, so a windowed pass or a whole-graph build does
// not allocate its own.
var ringPool sync.Pool

// Err reports the producer's terminal error (nil on success,
// context.Canceled/DeadlineExceeded on cancellation, or a generation
// error). Valid only after C is closed.
func (s *Stream) Err() error { return s.err }

// Trace returns the completed trace. Valid only after C is closed;
// nil if the producer finished with an error, and always nil on a
// recycled stream.
func (s *Stream) Trace() *Trace { return s.full }

// Recycle hands a consumed segment's buffer back to a recycled
// stream's producer; the consumer must not touch seg.Insts afterwards.
// A no-op on a retained stream.
func (s *Stream) Recycle(seg Segment) {
	if s.ring != nil {
		s.ring.free <- seg.Insts[:0]
	}
}

// Release hands a drained recycled stream's segment ring on to the next
// recycled stream. Call it once C is closed and every segment received
// has been recycled. The ring goes on only when every buffer is idle: a
// producer that failed or was canceled may have dropped one it took,
// and then the ring stays with the stream for the garbage collector. A
// no-op on a retained stream, and on a stream whose C is still open.
func (s *Stream) Release() {
	r := s.ring
	if r == nil || !s.closed.Load() || len(r.free) != cap(r.free) {
		return
	}
	s.ring = nil
	ringPool.Put(r)
}

// GenNS returns the producer time spent generating instructions, in
// nanoseconds. Monotonically updated; exact once C is closed.
func (s *Stream) GenNS() int64 { return s.genNS.Load() }

// StallNS returns the producer time spent blocked handing segments to
// the consumer, in nanoseconds. Monotonically updated; exact once C
// is closed.
func (s *Stream) StallNS() int64 { return s.stallNS.Load() }

// StreamWriter is the producer side of a Stream. Exactly one
// goroutine sends segments and then calls Close exactly once.
type StreamWriter struct {
	s    *Stream
	ch   chan<- Segment
	mark time.Time
}

// NewStream creates a retained stream for total instructions with a
// send buffer of buffer segments, returning the consumer and producer
// halves. The producer sends windows into the array that becomes the
// completed trace.
func NewStream(prog *program.Program, name string, total, buffer int) (*Stream, *StreamWriter) {
	ch := make(chan Segment, buffer)
	s := &Stream{Prog: prog, Name: name, Total: total, C: ch}
	return s, &StreamWriter{s: s, ch: ch, mark: time.Now()}
}

// NewRecycledStream creates a recycled stream for total instructions
// with a send buffer of buffer segments, backed by a ring of buffer+2
// segLen-instruction buffers: enough for a full send buffer, the
// segment the consumer is stepping and the one the producer is
// filling. The ring is one a released stream handed on when its shape
// matches, else a new one. The producer takes each segment's storage
// from Buffer.
func NewRecycledStream(prog *program.Program, name string, total, buffer, segLen int) (*Stream, *StreamWriter) {
	s, w := NewStream(prog, name, total, buffer)
	r, _ := ringPool.Get().(*segRing)
	if r == nil || cap(r.free) != buffer+2 || r.segLen != segLen {
		r = &segRing{free: make(chan []DynInst, buffer+2), segLen: segLen}
		for range buffer + 2 {
			r.free <- make([]DynInst, 0, segLen)
		}
	}
	s.ring = r
	return s, w
}

// Buffer returns an idle buffer of a recycled stream, with length 0
// and the stream's segment capacity, blocking until the consumer
// recycles one or ctx is done. Time blocked counts as stall.
func (w *StreamWriter) Buffer(ctx context.Context) ([]DynInst, error) {
	if w.s.ring == nil {
		return nil, fmt.Errorf("trace: Buffer on a retained stream")
	}
	free := w.s.ring.free
	select {
	case b := <-free:
		return b, nil
	default:
	}
	start := time.Now()
	w.s.genNS.Add(start.Sub(w.mark).Nanoseconds())
	defer func() {
		w.mark = time.Now()
		w.s.stallNS.Add(w.mark.Sub(start).Nanoseconds())
	}()
	select {
	case b := <-free:
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Send delivers one segment, blocking until the consumer accepts it
// or ctx is done. Time since the previous Send (or NewStream) is
// accounted as generation; time blocked in the send as stall. On ctx
// expiry the segment is dropped and the ctx error returned — the
// producer should stop and Close with that error.
func (w *StreamWriter) Send(ctx context.Context, seg Segment) error {
	start := time.Now()
	w.s.genNS.Add(start.Sub(w.mark).Nanoseconds())
	select {
	case w.ch <- seg:
		w.mark = time.Now()
		w.s.stallNS.Add(w.mark.Sub(start).Nanoseconds())
		return nil
	case <-ctx.Done():
		w.mark = time.Now()
		w.s.stallNS.Add(w.mark.Sub(start).Nanoseconds())
		return ctx.Err()
	}
}

// Close finalizes the stream and closes C. On success pass the
// completed trace (nil on a recycled stream) and a nil error; on
// failure pass a nil trace and the cause. Must be called exactly once,
// after the last Send.
func (w *StreamWriter) Close(full *Trace, err error) {
	if full == nil && err == nil && w.s.ring == nil {
		err = fmt.Errorf("trace: stream closed with neither trace nor error")
	}
	w.s.genNS.Add(time.Since(w.mark).Nanoseconds())
	w.s.full = full
	w.s.err = err
	w.s.closed.Store(true)
	close(w.ch)
}

// instsPool recycles trace backing arrays across cold session builds;
// the DynInst slab is one of the largest per-build allocations.
var instsPool sync.Pool

// AcquireInsts returns a DynInst slice with length 0 and capacity at
// least n, drawn from a pool when possible. Contents beyond the
// length are unspecified. Pair with ReleaseInsts when the trace is
// retired; callers that never release simply forgo reuse.
func AcquireInsts(n int) []DynInst {
	b, _ := instsPool.Get().([]DynInst)
	if cap(b) >= n {
		return b[:0]
	}
	return make([]DynInst, 0, n)
}

// ReleaseInsts returns a backing array obtained from AcquireInsts to
// the pool. The caller must not use the slice (or any trace built on
// it) afterwards.
func ReleaseInsts(b []DynInst) {
	if cap(b) == 0 {
		return
	}
	instsPool.Put(b[:0])
}
