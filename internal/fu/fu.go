// Package fu models the functional-unit pools of the simulated
// machine (paper Table 6): 6 integer ALUs, 2 integer multipliers,
// 4 FP adders, 2 FP multiply/divide units, and 3 load/store ports.
// Units are fully pipelined with an issue interval of one cycle, so a
// pool of N units accepts at most N new operations per cycle. The
// delay an operation spends waiting for a free issue slot is the
// "functional unit contention" latency the dependence-graph model
// records on RE edges (paper Figure 5b).
//
// Bookings are exact regardless of the order they arrive in: the pool
// keeps a per-cycle occupancy schedule, so an instruction processed
// later in program order but ready earlier in time correctly claims
// an earlier slot. (The simulator processes instructions in program
// order while their ready times are out of order, especially under
// idealized re-simulation, so a naive "next free unit" model would
// fabricate contention.)
//
// The schedule is a power-of-two ring of per-cycle counts that grows
// on demand, not a map, and it forgets: Retire raises a floor below
// which no later booking may land, and the cycles under it are
// dropped and their slots reused. The simulator retires the current
// instruction's dispatch cycle on the unit pools and its commit cycle
// on the store ports — both non-decreasing in program order, and no
// later booking starts before them — so the ring spans only the
// cycles still in flight and a pass over any trace length holds a
// bounded schedule. A booking below the floor panics: it would read a
// slot already handed to a later cycle.
package fu

import (
	"fmt"

	"icost/internal/isa"
)

// Counts is the number of units per class.
type Counts [isa.NumFUClasses]int

// DefaultCounts is the Table 6 configuration.
func DefaultCounts() Counts {
	var c Counts
	c[isa.FUIntALU] = 6
	c[isa.FUIntMul] = 2
	c[isa.FUFloatAdd] = 4
	c[isa.FUFloatMul] = 2
	c[isa.FULoadStore] = 3
	return c
}

// Pool tracks per-class, per-cycle issue occupancy.
type Pool struct {
	sched [isa.NumFUClasses]Sched
}

// NewPool builds a pool with the given unit counts.
func NewPool(c Counts) *Pool {
	p := &Pool{}
	for k := 0; k < int(isa.NumFUClasses); k++ {
		if c[k] <= 0 {
			panic("fu: class with no units")
		}
		p.sched[k].init(c[k])
	}
	return p
}

// Book reserves an issue slot of class c at the earliest cycle >=
// ready with spare capacity and returns that cycle.
func (p *Pool) Book(c isa.FUClass, ready int64) int64 {
	return p.sched[c].book(ready)
}

// Retire raises every class's floor to floor (see Sched.Retire).
func (p *Pool) Retire(floor int64) {
	for k := range p.sched {
		p.sched[k].Retire(floor)
	}
}

// Reset clears all bookings and floors.
func (p *Pool) Reset() {
	for k := range p.sched {
		p.sched[k].Reset()
	}
}

// initSlots is a fresh schedule's ring length; the ring doubles
// whenever a booking lands beyond it.
const initSlots = 64

// Sched is a per-cycle capacity schedule usable on its own (the
// simulator books store-commit ports through one). Cycle c lives in
// ring slot c&mask while lo <= c < lo+len; slots of cycles at or
// above top hold nothing. Full cycles carry a skip distance to the
// next candidate cycle; find follows and path-compresses the skips
// (union-find), keeping bookings amortized near-constant even through
// long saturated stretches.
type Sched struct {
	cap   int32
	floor int64 // no booking may land below; Retire raises it
	lo    int64 // lowest cycle the ring still holds; catches up to floor lazily
	top   int64 // one past the highest booked cycle (at least lo)
	mask  int64
	cnt   []int32  // bookings per cycle
	skip  []uint32 // full cycles: distance to the next candidate
}

// NewSched builds a schedule accepting cap bookings per cycle.
func NewSched(cap int) *Sched {
	if cap <= 0 {
		panic("fu: non-positive schedule capacity")
	}
	s := &Sched{}
	s.init(cap)
	return s
}

func (s *Sched) init(cap int) {
	*s = Sched{cap: int32(cap), mask: initSlots - 1,
		cnt: make([]int32, initSlots), skip: make([]uint32, initSlots)}
}

// Book reserves the earliest cycle >= ready with spare capacity. It
// panics if ready is below the floor (cycles start at the floor,
// initially 0).
func (s *Sched) Book(ready int64) int64 { return s.book(ready) }

// Retire promises that no later booking will be ready before floor,
// so the cycles below it can be dropped. Floors never fall: a lower
// floor than the current one is ignored.
func (s *Sched) Retire(floor int64) {
	if floor > s.floor {
		s.floor = floor
	}
}

// Reset clears all bookings and the floor, keeping the ring.
func (s *Sched) Reset() {
	clear(s.cnt)
	clear(s.skip)
	s.floor, s.lo, s.top = 0, 0, 0
}

//lint:hotpath
func (s *Sched) book(ready int64) int64 {
	if ready < s.floor {
		belowFloor(ready, s.floor)
	}
	if s.lo < s.floor {
		// Drop the retired cycles: their slots become those of the
		// cycles len above them, which must start empty.
		for c := s.lo; c < min(s.floor, s.top); c++ {
			s.cnt[c&s.mask], s.skip[c&s.mask] = 0, 0
		}
		s.lo = s.floor
		s.top = max(s.top, s.lo)
	}
	c := s.find(ready)
	if c-s.lo > s.mask {
		s.grow(c)
	}
	i := c & s.mask
	s.cnt[i]++
	if s.cnt[i] >= s.cap {
		s.skip[i] = 1
	}
	if c >= s.top {
		s.top = c + 1
	}
	return c
}

// find returns the first cycle >= c with spare capacity. Every cycle
// it visits lies in [lo, top), inside the ring.
func (s *Sched) find(c int64) int64 {
	root := c
	for root < s.top && s.cnt[root&s.mask] >= s.cap {
		root += int64(s.skip[root&s.mask])
	}
	// Path compression.
	for c != root {
		i := c & s.mask
		n := c + int64(s.skip[i])
		s.skip[i] = uint32(root - c)
		c = n
	}
	return root
}

// grow doubles the ring until cycle c fits, moving the live cycles
// [lo, top) to their slots in the larger ring.
//
//go:noinline
func (s *Sched) grow(c int64) {
	n := int64(len(s.cnt))
	for c-s.lo >= n {
		n *= 2
	}
	cnt, skip := make([]int32, n), make([]uint32, n)
	for x := s.lo; x < s.top; x++ {
		cnt[x&(n-1)], skip[x&(n-1)] = s.cnt[x&s.mask], s.skip[x&s.mask]
	}
	s.cnt, s.skip, s.mask = cnt, skip, n-1
}

// belowFloor reports a broken Retire contract, out of line so the
// booking path stays allocation-free.
//
//go:noinline
func belowFloor(ready, floor int64) {
	panic(fmt.Sprintf("fu: booking at cycle %d below the retired floor %d", ready, floor))
}
