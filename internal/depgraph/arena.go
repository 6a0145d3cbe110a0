package depgraph

// Arena allocation for whole graphs. A cold session build (and every
// idealized re-simulation in package multisim) constructs one graph
// of known size, uses it, and drops it; allocating the record slices
// and flat CSR tables individually each time is pure GC churn.
// NewPooled carves everything — the typed record columns AND the flat
// tables csr.go fills on first walk — out of one memArena from the
// package allocator (alloc.go); Release returns it.

// NewPooled is New with arena-backed record storage. The returned
// graph is indistinguishable from New's until Release is called;
// callers that never release simply forgo reuse. WithConfig clones of
// a pooled graph carry no arena — releasing the original invalidates
// them too, since they share its records.
func NewPooled(cfg Config, n int) *Graph {
	a := acquireArena(0, (5+flatI32PerInst)*n, (1+flatU8PerInst)*n, n)
	info := a.infos(n)
	u8 := a.u8s(n)
	reLat := a.i32s(n)
	ccLat := a.i32s(n)
	clear(info)
	clear(u8)
	clear(reLat) // RELat, CCLat start at zero
	clear(ccLat)
	g := &Graph{
		Cfg:      cfg,
		Info:     info,
		DDBreak:  u8,
		RELat:    reLat,
		CCLat:    ccLat,
		Prod1:    a.i32s(n),
		Prod2:    a.i32s(n),
		PPLeader: a.i32s(n),
		arena:    a,
	}
	// Pre-carve the flat-table columns; buildTables fills every
	// element on first walk, so no clearing is needed here.
	g.flat = flatTables{
		epLat:    a.i32s(n),
		epDMiss:  a.i32s(n),
		icache:   a.i32s(n),
		epClass:  a.u8s(n),
		mispPrev: a.u8s(n),
	}
	for i := 0; i < n; i++ {
		g.Prod1[i] = -1
		g.Prod2[i] = -1
		g.PPLeader[i] = -1
	}
	return g
}

// Release returns the graph's arena to the pool. A no-op for graphs
// from New or WithConfig. The graph — and any WithConfig clone of it
// — must not be used afterwards; the record slices are nilled so a
// stale reference fails fast instead of reading recycled data.
func (g *Graph) Release() {
	a := g.arena
	if a == nil {
		return
	}
	g.arena = nil
	g.Info, g.DDBreak = nil, nil
	g.RELat, g.CCLat = nil, nil
	g.Prod1, g.Prod2, g.PPLeader = nil, nil, nil
	g.flat = flatTables{}
	releaseArena(a)
}

// AcquireTimes returns pooled node-time scratch with n-length slices
// whose contents are unspecified; the caller must overwrite every
// element (the simulator's forward pass does). Pair with
// ReleaseTimes.
func AcquireTimes(n int) *Times {
	return acquireTimes(n)
}

// ReleaseTimes returns scratch obtained from AcquireTimes (or a Times
// handed out by the simulator) to the shared pool. The Times must not
// be used afterwards.
func ReleaseTimes(t *Times) {
	if t != nil {
		releaseTimes(t)
	}
}
