package fu

import (
	"strings"
	"testing"

	"icost/internal/isa"
)

// xorshift is a deterministic stream, so a failing seed reproduces
// from the failure message alone.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// TestRingMatchesLegacy books random streams through the ring and
// through the map-backed reference and requires every booking to land
// on the same cycle. Streams honour the retire contract: the floor
// only rises, and every booking is ready at or after it. They mix
// in-order readiness, out-of-order readiness inside a span, saturated
// stretches (many bookings ready in one cycle) and floor jumps past
// the whole ring. Odd seeds add far-future bookings that force the
// ring to grow several times; even seeds keep it small, so it wraps
// around thousands of times.
func TestRingMatchesLegacy(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xorshift(seed * 0x9e3779b97f4a7c15)
		cap := 1 + rng.intn(6)
		far := 1 + 2000*int(seed%2)
		ring, ref := NewSched(cap), newLegacySched(cap)
		var floor int64
		for op := 0; op < 20000; op++ {
			switch k := rng.intn(100); {
			case k < 30:
				floor += int64(rng.intn(4))
				ring.Retire(floor)
			case k < 31:
				ring.Retire(floor - 1 - int64(rng.intn(10))) // ignored: floors never fall
			case k < 32:
				floor += int64(rng.intn(300)) // may skip the whole ring
				ring.Retire(floor)
			}
			var ready int64
			switch k := rng.intn(100); {
			case k < 60:
				ready = floor + int64(rng.intn(40))
			case k < 90:
				// A saturated stretch: a burst of bookings all ready
				// in one cycle.
				ready = floor + int64(rng.intn(8))
				for b := rng.intn(4 * cap); b > 0; b-- {
					if got, want := ring.Book(ready), ref.book(ready); got != want {
						t.Fatalf("seed %d op %d: burst booking at %d landed on %d, reference %d", seed, op, ready, got, want)
					}
				}
			case k < 99:
				ready = floor + int64(rng.intn(far))
			default:
				ready = floor + int64(rng.intn(100*far)) // far future: the ring grows
			}
			if got, want := ring.Book(ready), ref.book(ready); got != want {
				t.Fatalf("seed %d op %d: booking at %d (floor %d, cap %d) landed on %d, reference %d",
					seed, op, ready, floor, cap, got, want)
			}
		}
	}
}

// TestPoolRingMatchesLegacy drives every class of a pool the way the
// simulator does — one floor per instruction, bookings at or after
// it — against one reference schedule per class.
func TestPoolRingMatchesLegacy(t *testing.T) {
	counts := DefaultCounts()
	for seed := uint64(1); seed <= 10; seed++ {
		rng := xorshift(seed*0x2545f4914f6cdd1d + 1)
		p := NewPool(counts)
		var refs [isa.NumFUClasses]*legacySched
		for k := range refs {
			refs[k] = newLegacySched(counts[k])
		}
		var d int64
		for i := 0; i < 50000; i++ {
			d += int64(rng.intn(2))
			p.Retire(d)
			c := isa.FUClass(rng.intn(int(isa.NumFUClasses)))
			ready := d + int64(rng.intn(300))
			if got, want := p.Book(c, ready), refs[c].book(ready); got != want {
				t.Fatalf("seed %d inst %d: class %d booking at %d landed on %d, reference %d", seed, i, c, ready, got, want)
			}
		}
	}
}

// TestRingStaysBounded: a schedule whose floor follows its bookings
// keeps a ring sized by the span in flight, not by the cycles passed.
func TestRingStaysBounded(t *testing.T) {
	s := NewSched(2)
	for c := int64(0); c < 1_000_000; c++ {
		s.Retire(c)
		s.Book(c + 37)
		s.Book(c + 37)
	}
	if n := len(s.cnt); n > 128 {
		t.Fatalf("ring grew to %d slots for a 40-cycle span", n)
	}
}

// TestBookingBelowFloorPanics pins the retire contract: a booking
// ready before the floor fails loudly rather than reading a slot that
// may already belong to a later cycle, and a lower floor does not
// reopen retired cycles.
func TestBookingBelowFloorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, "below the retired floor") {
				t.Fatalf("%s: panic %v", name, r)
			}
		}()
		f()
	}
	s := NewSched(1)
	s.Retire(100)
	if got := s.Book(100); got != 100 {
		t.Fatalf("booking at the floor landed on %d", got)
	}
	mustPanic("below floor", func() { s.Book(99) })
	s.Retire(50)
	mustPanic("after a lower floor", func() { s.Book(60) })
	mustPanic("negative cycle", func() { NewSched(1).Book(-1) })
	p := NewPool(DefaultCounts())
	p.Retire(10)
	mustPanic("pool", func() { p.Book(isa.FUIntALU, 9) })
}
