// Package depgraph implements the paper's dependence-graph model of a
// microexecution (Section 3, Tables 2-3, Figure 2).
//
// Each dynamic instruction i contributes five nodes:
//
//	D  dispatch into the instruction window
//	R  all data operands ready
//	E  begins execution
//	P  completes execution
//	C  commits
//
// and the constraints between nodes are latency-labelled edges:
//
//	DD   in-order dispatch            D(i-1) -> D(i)   icache/fetch-break latency
//	FBW  finite fetch bandwidth       D(i-fbw) -> D(i) latency 1
//	CD   finite re-order buffer       C(i-w) -> D(i)   latency 0
//	PD   control dependence           P(i-1) -> D(i)   branch recovery, if i-1 mispredicted
//	DR   execution follows dispatch   D(i) -> R(i)     constant pipeline latency
//	PR   data dependences             P(j) -> R(i)     issue-wakeup extra latency
//	RE   execute after ready          R(i) -> E(i)     functional-unit contention
//	EP   complete after execute       E(i) -> P(i)     execution latency
//	PP   cache-line sharing           P(j) -> P(i)     latency 0, if j is i's line's miss leader
//	PC   commit follows completion    P(i) -> C(i)     constant pipeline latency
//	CC   in-order commit              C(i-1) -> C(i)   latency 0
//	CBW  commit bandwidth             C(i-cbw) -> C(i) latency 1
//
// The graph is stored as per-instruction records (structure-of-arrays)
// rather than an explicit edge list: every edge's source is implied by
// its kind, so node times under any idealization are recomputed with
// one in-order pass. Idealizations (paper Table 1) change edge
// latencies — they never re-run the machine — which is exactly the
// paper's "determine the effect of an idealization without performing
// it" methodology.
package depgraph

import (
	"context"
	"fmt"
	"sync"

	"icost/internal/cache"
	"icost/internal/faultinject"
	"icost/internal/isa"
)

// Flags selects which event classes are idealized. These are the
// eight base breakdown categories of paper Table 4.
type Flags uint16

const (
	// IdealDL1 zeroes the level-one data-cache access latency
	// (category "dl1").
	IdealDL1 Flags = 1 << iota
	// IdealDMiss turns data-cache and DTLB misses into hits
	// (category "dmiss").
	IdealDMiss
	// IdealICache turns instruction-cache and ITLB misses into hits
	// (category "imiss").
	IdealICache
	// IdealBMisp turns branch mispredictions into correct
	// predictions (category "bmisp").
	IdealBMisp
	// IdealWindow enlarges the instruction window 20x (the paper's
	// finite approximation of an infinite window; category "win").
	IdealWindow
	// IdealBW gives infinite fetch, issue and commit bandwidth
	// (category "bw").
	IdealBW
	// IdealShortALU zeroes one-cycle integer-op latency (category
	// "shalu").
	IdealShortALU
	// IdealLongALU zeroes multi-cycle integer and FP op latency
	// (category "lgalu").
	IdealLongALU

	// NumFlags is the number of base categories.
	NumFlags = 8
	// AllFlags idealizes everything.
	AllFlags Flags = 1<<NumFlags - 1
)

var flagNames = [NumFlags]string{
	"dl1", "dmiss", "imiss", "bmisp", "win", "bw", "shalu", "lgalu",
}

// String renders a flag set as "dl1+win" etc.
func (f Flags) String() string {
	if f == 0 {
		return "none"
	}
	s := ""
	for b := 0; b < NumFlags; b++ {
		if f&(1<<b) != 0 {
			if s != "" {
				s += "+"
			}
			s += flagNames[b]
		}
	}
	return s
}

// FlagByName maps a category name ("dl1", "win", ...) to its flag.
func FlagByName(name string) (Flags, bool) {
	for b := 0; b < NumFlags; b++ {
		if flagNames[b] == name {
			return 1 << b, true
		}
	}
	return 0, false
}

// FlagNames returns the category names in flag-bit order.
func FlagNames() []string { return flagNames[:] }

// Ideal selects the events to idealize: Global applies to every
// instruction; PerInst (optional, same length as the graph) is OR'd
// in per instruction, enabling event-set granularity such as "all
// dynamic misses of one static load".
type Ideal struct {
	Global  Flags
	PerInst []Flags
	// Scale assigns each selected category a scale factor α (see
	// scale.go): instead of removing the category outright, its
	// latency contribution is multiplied by α ∈ [0,1]. The zero value
	// is all-α=0 — the binary zero-out — so every existing Ideal
	// keeps its exact meaning. Entries of unselected categories are
	// ignored.
	Scale ScaleVec
}

// Of returns the effective flags for instruction i.
func (id Ideal) Of(i int) Flags {
	if id.PerInst == nil {
		return id.Global
	}
	return id.Global | id.PerInst[i]
}

// Config carries the machine parameters the graph model needs to
// recompute edge latencies under idealization. It mirrors the
// simulator configuration (paper Table 6).
type Config struct {
	// FetchBW and CommitBW are instructions per cycle (FBW/CBW edges).
	FetchBW  int
	CommitBW int
	// Window is the re-order buffer size (CD edges).
	Window int
	// WindowIdealFactor is the window multiplier used to approximate
	// an infinite window (paper Table 1 uses 20).
	WindowIdealFactor int
	// DispatchToReady is the DR edge latency.
	DispatchToReady int
	// CompleteToCommit is the PC edge latency.
	CompleteToCommit int
	// BranchRecovery is the PD edge latency (the branch-misprediction
	// loop length).
	BranchRecovery int
	// WakeupExtra is added to every PR edge; 0 models single-cycle
	// issue-wakeup, 1 models the two-cycle wakeup loop of paper
	// Section 4.2.
	WakeupExtra int

	// Memory latencies (shared with the cache hierarchy config).
	DL1Latency     int
	L2Latency      int
	MemLatency     int
	TLBMissLatency int
}

// Validate rejects nonsensical parameters.
func (c *Config) Validate() error {
	switch {
	case c.FetchBW < 1 || c.CommitBW < 1:
		return fmt.Errorf("depgraph: bandwidth must be >= 1")
	case c.Window < 1:
		return fmt.Errorf("depgraph: window must be >= 1")
	case c.WindowIdealFactor < 2:
		return fmt.Errorf("depgraph: window ideal factor must be >= 2")
	case c.DL1Latency < 0 || c.L2Latency < 0 || c.MemLatency < 0 || c.TLBMissLatency < 0:
		return fmt.Errorf("depgraph: negative latency")
	case c.DispatchToReady < 0 || c.CompleteToCommit < 0 || c.BranchRecovery < 0 || c.WakeupExtra < 0:
		return fmt.Errorf("depgraph: negative pipeline latency")
	}
	return nil
}

// InstInfo annotates one dynamic instruction with the outcomes that
// determine its edge latencies.
type InstInfo struct {
	// Op is the opcode class.
	Op isa.Op
	// SIdx is the static instruction index (-1 if unknown, e.g. in
	// profiler fragments built without full binary context).
	SIdx int32
	// Mispredict marks a mispredicted control transfer (PD edge from
	// this instruction's P to the next instruction's D).
	Mispredict bool
	// DataLevel and DTLBMiss describe the data access of loads and
	// stores.
	DataLevel cache.Level
	DTLBMiss  bool
	// ILevel and ITLBMiss describe this instruction's fetch.
	ILevel   cache.Level
	ITLBMiss bool
}

// Graph is the dependence-graph model of one microexecution.
// Fields are exported for the builders in packages ooo and profiler;
// analysis code should treat a Graph as immutable.
//
// The seven per-instruction columns share one dynamic index space:
// any code that reassigns, reslices or rebuilds one of them wholesale
// must do the same to all seven, or every walk after that reads
// desynchronized records. colsync enforces the invariant, here and in
// every package that imports this one.
//
//lint:columns csr Info,DDBreak,RELat,CCLat,Prod1,Prod2,PPLeader
type Graph struct {
	// Cfg is the machine configuration.
	Cfg Config
	// Info holds per-instruction annotations.
	Info []InstInfo
	// DDBreak is extra DD-edge latency from fetch-group breaks
	// (taken-branch limits), excluding the icache penalty, which is
	// derived from Info so it can be idealized.
	DDBreak []uint8
	// RELat is the recorded functional-unit contention per
	// instruction (RE edge latency).
	RELat []int32
	// CCLat is the recorded store-commit bandwidth contention on the
	// CC edge into each instruction (paper Figure 5b: "store BW
	// contention", collected dynamically). Zero for non-contended
	// commits; removed by IdealBW.
	CCLat []int32
	// Prod1, Prod2 are the dynamic indices of register producers (PR
	// edges); -1 means the operand was ready long before.
	Prod1, Prod2 []int32
	// PPLeader is the dynamic index of the load whose outstanding
	// miss this instruction's line depends on (PP edge); -1 if none.
	PPLeader []int32

	// flatOnce guards the lazily built, idealization-independent flat
	// CSR tables the scalar walks read (see csr.go).
	// Built on first walk; Info must not be mutated after.
	flatOnce sync.Once
	flat     flatTables

	// arena backs the record slices (and the pre-carved flat tables)
	// when the graph came from NewPooled (see arena.go); nil for New
	// and WithConfig graphs.
	arena *memArena
}

// WithConfig returns a graph sharing this graph's per-instruction
// records but evaluated under a different machine configuration
// (what-if analysis on a built microexecution). The clone carries its
// own lazily built flat tables — they depend on the configuration —
// so both graphs can be walked independently. Graphs cannot be copied
// by value for the same reason.
func (g *Graph) WithConfig(cfg Config) *Graph {
	return &Graph{
		Cfg:      cfg,
		Info:     g.Info,
		DDBreak:  g.DDBreak,
		RELat:    g.RELat,
		CCLat:    g.CCLat,
		Prod1:    g.Prod1,
		Prod2:    g.Prod2,
		PPLeader: g.PPLeader,
	}
}

// New allocates an empty graph for n instructions.
func New(cfg Config, n int) *Graph {
	g := &Graph{
		Cfg:      cfg,
		Info:     make([]InstInfo, n),
		DDBreak:  make([]uint8, n),
		RELat:    make([]int32, n),
		CCLat:    make([]int32, n),
		Prod1:    make([]int32, n),
		Prod2:    make([]int32, n),
		PPLeader: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		g.Prod1[i] = -1
		g.Prod2[i] = -1
		g.PPLeader[i] = -1
	}
	return g
}

// Len returns the number of instructions.
func (g *Graph) Len() int { return len(g.Info) }

// BaseExecLat is the execution latency of a non-memory opcode on the
// Table 6 machine: 1-cycle integer ALU, 3-cycle integer multiply,
// 2-cycle FP add, 4-cycle FP multiply, 12-cycle FP divide. Branches
// and nops resolve in one ALU cycle.
func BaseExecLat(op isa.Op) int64 {
	switch op {
	case isa.OpIntMul:
		return 3
	case isa.OpFloatAdd:
		return 2
	case isa.OpFloatMul:
		return 4
	case isa.OpFloatDiv:
		return 12
	default:
		return 1
	}
}

// EPLat returns the EP-edge (execution) latency of instruction i
// under flags f. For memory operations the latency is composed from
// the access outcome so that idealizations can remove exactly their
// component: IdealDL1 removes the L1-hit component, IdealDMiss the
// miss and TLB components.
func (g *Graph) EPLat(i int, f Flags) int64 {
	info := &g.Info[i]
	op := info.Op
	if op.IsMem() {
		var lat int64
		if f&IdealDL1 == 0 {
			lat += int64(g.Cfg.DL1Latency)
		}
		if f&IdealDMiss == 0 {
			if info.DTLBMiss {
				lat += int64(g.Cfg.TLBMissLatency)
			}
			switch info.DataLevel {
			case cache.LevelL2:
				lat += int64(g.Cfg.L2Latency)
			case cache.LevelMem:
				lat += int64(g.Cfg.L2Latency) + int64(g.Cfg.MemLatency)
			}
		}
		return lat
	}
	switch {
	case op.IsShortALU():
		if f&IdealShortALU != 0 {
			return 0
		}
		return 1
	case op.IsLongALU():
		if f&IdealLongALU != 0 {
			return 0
		}
		return BaseExecLat(op)
	default:
		return BaseExecLat(op)
	}
}

// DDLat returns the DD-edge latency into instruction i under flags f:
// the fetch-break penalty (removed by IdealBW) plus the icache/ITLB
// penalty (removed by IdealICache).
func (g *Graph) DDLat(i int, f Flags) int64 {
	var lat int64
	if f&IdealBW == 0 {
		lat += int64(g.DDBreak[i])
	}
	if f&IdealICache == 0 {
		info := &g.Info[i]
		if info.ITLBMiss {
			lat += int64(g.Cfg.TLBMissLatency)
		}
		switch info.ILevel {
		case cache.LevelL2:
			lat += int64(g.Cfg.L2Latency)
		case cache.LevelMem:
			lat += int64(g.Cfg.L2Latency) + int64(g.Cfg.MemLatency)
		}
	}
	return lat
}

// Times holds the node times of every instruction; returned by
// NodeTimes for tests, visualization and the profiler.
type Times struct {
	D, R, E, P, C []int64

	// arena is non-nil when the slices came from pooled scratch
	// (AcquireTimes); releaseTimes recycles it.
	arena *memArena
}

// ExecTime returns the execution time (cycles) of the microexecution
// under the given idealization: the commit time of the last
// instruction plus one. ExecTime is infallible: it walks with a
// background context, which can never be cancelled, so the only
// error path of the walk is unreachable and a zero return always
// means zero cycles, never a swallowed error.
//
//lint:ignore ctxflow infallible wrapper over ExecTimeCtx; a background ctx cannot cancel
func (g *Graph) ExecTime(id Ideal) int64 {
	t, err := g.ExecTimeCtx(context.Background(), id)
	if err != nil {
		panic("depgraph: background-context walk failed: " + err.Error())
	}
	return t
}

// ExecTimeCtx is ExecTime with cancellation: the graph walk checks
// ctx periodically (every ctxCheckStride instructions) and returns
// ctx.Err() if the query was cancelled or timed out mid-walk. A
// long-lived analysis service uses this to abort queries whose
// clients have gone away. The node-time scratch comes from a pool,
// so a warm query allocates nothing.
//
//lint:hotpath
func (g *Graph) ExecTimeCtx(ctx context.Context, id Ideal) (int64, error) {
	n := g.Len()
	if n == 0 {
		return 0, nil
	}
	t := acquireTimes(n)
	defer releaseTimes(t)
	if err := g.runInto(ctx, id, t); err != nil {
		return 0, err
	}
	return t.C[n-1] + 1, nil
}

// NodeTimes computes all node times under the given idealization.
// Like ExecTime it is infallible: the background context cannot
// cancel the walk, so the result is never nil.
//
//lint:ignore ctxflow infallible wrapper over runCtx; a background ctx cannot cancel
func (g *Graph) NodeTimes(id Ideal) *Times {
	t, err := g.runCtx(context.Background(), id)
	if err != nil {
		panic("depgraph: background-context walk failed: " + err.Error())
	}
	return t
}

// ctxCheckStride is how many instructions the forward and backward
// passes process between ctx.Err() polls: frequent enough that
// cancellation lands within microseconds, rare enough to be free.
const ctxCheckStride = 2048

// runCtx evaluates the recurrence into freshly allocated node times
// that the caller may keep.
func (g *Graph) runCtx(ctx context.Context, id Ideal) (*Times, error) {
	n := g.Len()
	t := &Times{
		D: make([]int64, n), R: make([]int64, n), E: make([]int64, n),
		P: make([]int64, n), C: make([]int64, n),
	}
	if err := g.runInto(ctx, id, t); err != nil {
		return nil, err
	}
	return t, nil
}

// runInto evaluates the recurrence with one in-order pass, writing
// into t (whose slices must be Len() long; every element is
// overwritten, so pooled scratch needs no zeroing). Every node's time
// is the max over its in-edges of source time plus edge latency, so
// the unidealized result reproduces the simulator's timing exactly
// (the simulator computes these same maxima while arbitrating). The
// pass aborts with ctx.Err() if ctx is done.
//
// The kernel streams the flat CSR columns (csr.go) and scales each
// latency component by its lane multiplier (scale.go). A global
// idealization resolves its lane once; a per-instruction mask looks
// each instruction's lane up in a stack table by effective flags.
//
//lint:hotpath
func (g *Graph) runInto(ctx context.Context, id Ideal, t *Times) error {
	// Fault hook: fires only on cancellable walks (ctx with a Done
	// channel); the infallible background-context wrappers are exempt
	// by contract — their callers are promised no error, ever.
	if ctx.Done() != nil {
		if err := faultinject.Hit(ctx, faultinject.GraphWalk); err != nil {
			return err
		}
	}
	n := g.Len()
	ft := g.tables()
	cfg := &g.Cfg
	dr := int64(cfg.DispatchToReady)
	pc := int64(cfg.CompleteToCommit)
	rec := int64(cfg.BranchRecovery)
	wake := int64(cfg.WakeupExtra)
	fbw, cbw := cfg.FetchBW, cfg.CommitBW
	ddB, reL, ccL := g.DDBreak, g.RELat, g.CCLat
	pr1, pr2, ld := g.Prod1, g.Prod2, g.PPLeader
	epL, epC, epDm, ic, mp := ft.epLat, ft.epClass, ft.epDMiss, ft.icache, ft.mispPrev
	tD, tR, tE, tP, tC := t.D, t.R, t.E, t.P, t.C
	lt := laneTable{cfg: cfg, s: id.Scale}
	glob, per := id.Global, id.PerInst
	ln := lt.of(glob)

	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if per != nil {
			ln = lt.of(glob | per[i])
		}

		// --- D node (DD, PD, FBW, CD edges) ---
		d := scaleLat(int64(ddB[i]), ln.bwM) + scaleLat(int64(ic[i]), ln.icM)
		if i > 0 {
			d += tD[i-1]
			if mp[i] != 0 {
				// The PD edge is gated and scaled by the *branch's*
				// (i-1's) effective flags.
				recM := ln.recM
				if per != nil {
					recM = lt.of(glob | per[i-1]).recM
				}
				if recM > 0 {
					d = max(d, tP[i-1]+scaleLat(rec, recM))
				}
			}
		}
		if ln.bwM > 0 && i >= fbw {
			d = max(d, tD[i-fbw]+1)
		}
		if i >= ln.win {
			d = max(d, tC[i-ln.win])
		}
		tD[i] = d

		// --- R node (DR, PR edges) ---
		r := d + dr
		if p := pr1[i]; p >= 0 {
			r = max(r, tP[p]+wake)
		}
		if p := pr2[i]; p >= 0 {
			r = max(r, tP[p]+wake)
		}
		tR[i] = r

		// --- E node (RE edge) ---
		e := r + scaleLat(int64(reL[i]), ln.bwM)
		tE[i] = e

		// --- P node (EP, PP edges) ---
		p := e + scaleLat(int64(epL[i]), ln.ep[epC[i]&(numEPClasses-1)]) +
			scaleLat(int64(epDm[i]), ln.dmM)
		if l := ld[i]; l >= 0 && ln.dmM > 0 {
			p = max(p, tP[l])
		}
		tP[i] = p

		// --- C node (PC, CC, CBW edges) ---
		c := p + pc
		if i > 0 {
			c = max(c, tC[i-1]+scaleLat(int64(ccL[i]), ln.bwM))
		}
		if ln.bwM > 0 && i >= cbw {
			c = max(c, tC[i-cbw]+1)
		}
		tC[i] = c
	}
	return nil
}
