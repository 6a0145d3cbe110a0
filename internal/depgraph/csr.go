package depgraph

// Flat CSR view of the graph. The builder-facing record arrays
// (DDBreak, RELat, CCLat, Prod1, Prod2, PPLeader) are already
// constant-stride columns in topological (dispatch) order — each is
// the in-edge list of one edge kind, indexed by destination
// instruction. What the walks additionally need per instruction is the
// flag-selectable latency decomposition, which the legacy layout
// re-derived from the InstInfo structs on every visit (a 16-byte
// record plus opcode/level branching per instruction per
// idealization). flatTables extends the CSR with that decomposition as
// three more int32 columns, a latency-class byte and the PD-edge gate,
// so the scalar forward and backward walks stream pure integer columns
// and never touch InstInfo. The multi-lane fold decomposes each
// instruction's InstInfo itself, once for all its lanes, because a
// streamed block has no per-graph tables; over a whole graph it reads
// only the PD-edge gate from here.
//
// The tables are built once per graph on first walk and shared by
// every subsequent walk and batch. Like the batch tables they replace,
// they cache only Info-derived values: a graph must not have its Info
// records mutated after its first walk (the recorded contention
// columns RELat/CCLat/DDBreak and the producer columns are read
// directly and stay mutable for what-if analyses).
type flatTables struct {
	// The EP-edge latency splits into a miss component epDMiss, which
	// dmiss scales, and the rest, epLat, which the category named by
	// epClass scales: a memory op's L1 hit (dl1), a one-cycle integer
	// op (shalu), a multi-cycle op (lgalu), or a latency no category
	// touches (epClassFixed). The icache component of the DD edge is
	// icache.
	epLat, epDMiss, icache []int32
	epClass                []uint8
	// mispPrev[i] != 0 marks instruction i-1 as a mispredicted branch
	// (the PD-edge gate, hoisted out of InstInfo).
	mispPrev []uint8
}

// The EP latency classes: which category's multiplier scales an
// instruction's epLat. A lane holds one multiplier per class. The
// class count is a power of two, so the kernels mask a class with
// numEPClasses-1 and index a lane's multipliers without a bounds
// check.
const (
	epClassDL1 = iota
	epClassShort
	epClassLong
	epClassFixed
	numEPClasses
)

// tables returns the flat CSR tables, building them on first use.
func (g *Graph) tables() *flatTables {
	g.flatOnce.Do(g.buildTables)
	return &g.flat
}

// flatI32PerInst and flatU8PerInst are the per-instruction element
// counts a graph arena reserves for the flat tables (see NewPooled).
const (
	flatI32PerInst = 3
	flatU8PerInst  = 2
)

func (g *Graph) buildTables() {
	n := g.Len()
	ft := &g.flat
	if ft.epLat == nil {
		// Heap graph (New, WithConfig, snapshot restore): one slab per
		// element class. Pooled graphs pre-carve these from the graph
		// arena in NewPooled.
		i32 := make([]int32, flatI32PerInst*n)
		ft.epLat = i32[0*n : 1*n : 1*n]
		ft.epDMiss = i32[1*n : 2*n : 2*n]
		ft.icache = i32[2*n : 3*n : 3*n]
		u8 := make([]uint8, flatU8PerInst*n)
		ft.epClass = u8[0*n : 1*n : 1*n]
		ft.mispPrev = u8[1*n : 2*n : 2*n]
	}
	cfg := &g.Cfg
	dl1 := int64(cfg.DL1Latency)
	l2 := int64(cfg.L2Latency)
	mem := int64(cfg.L2Latency) + int64(cfg.MemLatency)
	tlb := int64(cfg.TLBMissLatency)
	for i := 0; i < n; i++ {
		// decomposeLat (windoweval.go) is the single source of truth
		// for the per-instruction decomposition; the window evaluator
		// calls the same code, so whole-graph and windowed folds agree
		// by construction.
		ep, class, dm, ic := decomposeLat(&g.Info[i], dl1, l2, mem, tlb)
		ft.epLat[i] = int32(ep)
		ft.epClass[i] = class
		ft.epDMiss[i] = int32(dm)
		ft.icache[i] = int32(ic)
		var mp uint8
		if i > 0 && g.Info[i-1].Mispredict {
			mp = 1
		}
		ft.mispPrev[i] = mp
	}
}
