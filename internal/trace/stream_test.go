package trace

import (
	"context"
	"errors"
	"testing"
)

// TestRecycledRingReleasedOnlyWhenIdle: Release hands a recycled
// stream's segment ring on only once C is closed and every buffer is
// back in the ring; otherwise the stream keeps it. A stream whose
// shape differs from a pooled ring's gets a ring of its own shape.
func TestRecycledRingReleasedOnlyWhenIdle(t *testing.T) {
	ctx := context.Background()

	// C still open: the producer may yet take a buffer.
	s, w := NewRecycledStream(nil, "open", 4, 1, 2)
	s.Release()
	if s.ring == nil {
		t.Fatal("released the ring of a stream whose C is open")
	}
	// The producer takes a buffer and fails before sending it.
	if _, err := w.Buffer(ctx); err != nil {
		t.Fatal(err)
	}
	w.Close(nil, errors.New("boom"))
	for range s.C {
	}
	s.Release()
	if s.ring == nil {
		t.Fatal("released a ring with a buffer outstanding")
	}

	// A drained stream whose every segment came back hands its ring on.
	s, w = NewRecycledStream(nil, "drained", 4, 1, 2)
	go func() {
		for lo := 0; lo < 4; lo += 2 {
			b, err := w.Buffer(ctx)
			if err != nil {
				w.Close(nil, err)
				return
			}
			if err := w.Send(ctx, Segment{Base: lo, Insts: b[:2]}); err != nil {
				w.Close(nil, err)
				return
			}
		}
		w.Close(nil, nil)
	}()
	for seg := range s.C {
		s.Recycle(seg)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if s.ring != nil {
		t.Fatal("a drained stream kept its ring")
	}
	s.Recycle(Segment{}) // a no-op once the ring is gone

	s, w = NewRecycledStream(nil, "wider", 4, 1, 3)
	for k := 0; k < 3; k++ {
		b, err := w.Buffer(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 0 || cap(b) != 3 {
			t.Fatalf("buffer %d of a 3-instruction ring: len %d cap %d", k, len(b), cap(b))
		}
	}
	w.Close(nil, nil)
}
