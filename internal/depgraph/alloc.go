package depgraph

import "sync"

// Unified scratch allocator. Every pooled byte in this package — the
// graph record arena, the flat CSR tables, the scalar walks' node-time
// scratch, the backward pass's latest-time scratch and the batch
// fold's node-time rings — is carved out of one memArena: a single
// recyclable backing allocation per typed element class. One pool, one
// acquire/release discipline, one place where capacity grows, instead
// of the four bespoke sync.Pools this file replaces.

// memArena is one recyclable backing allocation. Slices are carved
// sequentially per element class; offsets reset on acquire. Carved
// slices use full-cap three-index slicing so an append can never bleed
// into a neighbouring carve.
type memArena struct {
	i64  []int64
	i32  []int32
	u8   []uint8
	info []InstInfo

	o64, o32, o8, oInfo int
}

var arenaPool = sync.Pool{New: func() any { return new(memArena) }}

// acquireArena returns an arena with at least the given element
// capacities per class and all carve offsets reset. Contents are
// unspecified; carvers that need zeroed or sentinel-filled storage
// initialize it themselves.
func acquireArena(n64, n32, n8, nInfo int) *memArena {
	a := arenaPool.Get().(*memArena)
	if cap(a.i64) < n64 {
		a.i64 = make([]int64, n64)
	}
	if cap(a.i32) < n32 {
		a.i32 = make([]int32, n32)
	}
	if cap(a.u8) < n8 {
		a.u8 = make([]uint8, n8)
	}
	if cap(a.info) < nInfo {
		a.info = make([]InstInfo, nInfo)
	}
	a.o64, a.o32, a.o8, a.oInfo = 0, 0, 0, 0
	return a
}

// releaseArena recycles the arena. The caller must drop every slice
// carved from it first.
func releaseArena(a *memArena) { arenaPool.Put(a) }

func (a *memArena) i64s(n int) []int64 {
	s := a.i64[a.o64 : a.o64+n : a.o64+n]
	a.o64 += n
	return s
}

func (a *memArena) i32s(n int) []int32 {
	s := a.i32[a.o32 : a.o32+n : a.o32+n]
	a.o32 += n
	return s
}

func (a *memArena) u8s(n int) []uint8 {
	s := a.u8[a.o8 : a.o8+n : a.o8+n]
	a.o8 += n
	return s
}

func (a *memArena) infos(n int) []InstInfo {
	s := a.info[a.oInfo : a.oInfo+n : a.oInfo+n]
	a.oInfo += n
	return s
}

// acquireTimes returns a Times with n-length slices whose contents
// are unspecified; runInto overwrites every element.
func acquireTimes(n int) *Times {
	a := acquireArena(5*n, 0, 0, 0)
	return &Times{
		D: a.i64s(n), R: a.i64s(n), E: a.i64s(n),
		P: a.i64s(n), C: a.i64s(n),
		arena: a,
	}
}

// releaseTimes recycles pooled node-time scratch. A no-op for Times
// that own their storage (NodeTimes results); the slices of pooled
// Times are nilled so a stale reference fails fast instead of reading
// recycled data.
func releaseTimes(t *Times) {
	a := t.arena
	if a == nil {
		return
	}
	t.arena = nil
	t.D, t.R, t.E, t.P, t.C = nil, nil, nil, nil, nil
	releaseArena(a)
}

// acquireLatest returns a Latest with n-length slices whose contents
// are unspecified; the backward pass initializes every element.
func acquireLatest(n int) *Latest {
	a := acquireArena(5*n, 0, 0, 0)
	return &Latest{
		D: a.i64s(n), R: a.i64s(n), E: a.i64s(n),
		P: a.i64s(n), C: a.i64s(n),
		arena: a,
	}
}

func releaseLatest(l *Latest) {
	a := l.arena
	if a == nil {
		return
	}
	l.arena = nil
	l.D, l.R, l.E, l.P, l.C = nil, nil, nil, nil, nil
	releaseArena(a)
}
