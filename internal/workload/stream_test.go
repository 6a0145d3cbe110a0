package workload

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"icost/internal/leakcheck"
	"icost/internal/trace"
)

// TestRecycledStreamMatchesExecute: a recycled stream carries the same
// dynamic instructions as Execute, in contiguous segments, out of a
// ring of at most streamBuffer+2 buffers however long the trace, and
// ends without a completed trace. Each drained stream hands its ring
// on, so later streams of the same segment length refill buffers an
// earlier one used.
func TestRecycledStreamMatchesExecute(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"gcc", "mcf", "perl"} {
		for _, segLen := range []int{1, 100, 0} {
			w, err := New(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			const n = 20000
			want, err := w.Execute(n, 5)
			if err != nil {
				t.Fatal(err)
			}
			st, err := w.ExecuteRecycled(ctx, n, 5, segLen)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]trace.DynInst, 0, n)
			bufs := map[*trace.DynInst]bool{}
			for seg := range st.C {
				if seg.Base != len(got) {
					t.Fatalf("%s/%d: segment at %d after %d instructions", name, segLen, seg.Base, len(got))
				}
				got = append(got, seg.Insts...)
				bufs[&seg.Insts[:1][0]] = true
				st.Recycle(seg)
			}
			if err := st.Err(); err != nil {
				t.Fatalf("%s/%d: %v", name, segLen, err)
			}
			if st.Trace() != nil {
				t.Fatalf("%s/%d: a recycled stream kept a trace", name, segLen)
			}
			if !reflect.DeepEqual(got, want.Insts) {
				t.Fatalf("%s/%d: recycled stream differs from Execute", name, segLen)
			}
			if len(bufs) > streamBuffer+2 {
				t.Fatalf("%s/%d: %d distinct segment buffers, ring holds %d", name, segLen, len(bufs), streamBuffer+2)
			}
			st.Release()
		}
	}
}

// TestRecycledStreamCancel: a producer blocked on a full ring — the
// consumer holds every buffer and recycles none — exits when ctx is
// canceled, closing the stream with the cancellation and leaving no
// goroutine behind.
func TestRecycledStreamCancel(t *testing.T) {
	leakcheck.Check(t)
	w, err := New("gzip", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := w.ExecuteRecycled(ctx, 1_000_000, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < streamBuffer+2; k++ { // take the whole ring
		if _, ok := <-st.C; !ok {
			t.Fatalf("stream closed after %d segments: %v", k, st.Err())
		}
	}
	select {
	case seg, ok := <-st.C:
		t.Fatalf("producer sent segment %+v (open %v) with every buffer held", seg.Base, ok)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	for range st.C {
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("stream error %v, want context.Canceled", st.Err())
	}
}

// TestStreamBufferNeedsRecycledStream: only a recycled stream hands
// out buffers, and only a retained one needs a trace to close cleanly.
func TestStreamBufferNeedsRecycledStream(t *testing.T) {
	w, err := New("gzip", 2)
	if err != nil {
		t.Fatal(err)
	}
	st, wr := trace.NewStream(w.Prog, "x", 10, 1)
	if _, err := wr.Buffer(context.Background()); err == nil {
		t.Fatal("Buffer on a retained stream succeeded")
	}
	wr.Close(nil, nil)
	if st.Err() == nil {
		t.Fatal("a retained stream closed without a trace reports no error")
	}
	st, wr = trace.NewRecycledStream(w.Prog, "x", 10, 1, 4)
	if b, err := wr.Buffer(context.Background()); err != nil || len(b) != 0 || cap(b) != 4 {
		t.Fatalf("Buffer: len %d cap %d, %v", len(b), cap(b), err)
	}
	wr.Close(nil, nil)
	if st.Err() != nil || st.Trace() != nil {
		t.Fatalf("recycled stream closed: err %v, trace %v", st.Err(), st.Trace())
	}
}
