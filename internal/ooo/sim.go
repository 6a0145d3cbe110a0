package ooo

import (
	"fmt"
	"math"
	"sync"

	"icost/internal/bpred"
	"icost/internal/cache"
	"icost/internal/depgraph"
	"icost/internal/fu"
	"icost/internal/isa"
	"icost/internal/program"
	"icost/internal/trace"
)

// machine is the simulator's incremental core: all the state one
// in-order pass over the trace carries from instruction to
// instruction. Simulate drives it over a complete trace;
// SimulateStream feeds it trace segments as the producer emits them.
// Either way every instruction flows through the same warm/step
// methods, which is what makes the two entry points bit-identical.
type machine struct {
	cfg  Config
	gcfg *depgraph.Config
	prog *program.Program

	hier       *cache.Hierarchy
	pred       *bpred.Predictor
	pool       *fu.Pool
	storePorts *fu.Sched

	f     depgraph.Flags
	g     *depgraph.Graph
	times *depgraph.Times
	st    Stats
	n     int

	// Storage addressing. In full mode the graph and node-time arrays
	// hold every timed instruction and mask/horizon are identities
	// (mask covers any index, horizon never clamps), so the step code
	// below is one path, bit-exact for both modes. In windowed mode
	// the same arrays are a power-of-two ring (mask = size-1) and
	// horizon = the re-order window: producer/leader reads farther
	// back are skipped, which windoweval.go's carry analysis proves
	// can never change a node time under the windowed preconditions.
	mask     int
	horizon  int
	windowed bool

	// lastWriter maps architectural registers to the dynamic index of
	// their most recent writer (-1 = written before the trace).
	lastWriter [isa.NumRegs]int32
	maps       *simMaps

	// Fetch-group state for the taken-branch break rule.
	curFetchCycle int64
	takenInCycle  int

	i int // next timed dynamic index
}

// simMaps holds the simulator's per-run address maps, recycled across
// runs: cleared maps keep their buckets, so the multisim hot loop (256
// re-simulations per breakdown) stops paying map growth every run.
type simMaps struct {
	// lineLeader maps a cache line to the most recent load that
	// missed on it.
	lineLeader map[isa.Addr]int32
	// lastStoreTo maps an 8-byte granule to the most recent store,
	// for the dynamically-collected store-to-load memory dependences
	// of paper Figure 5b (PR "mem: D").
	lastStoreTo map[isa.Addr]int32
}

var simMapsPool = sync.Pool{New: func() any {
	return &simMaps{
		lineLeader:  map[isa.Addr]int32{},
		lastStoreTo: map[isa.Addr]int32{},
	}
}}

func acquireSimMaps() *simMaps {
	m := simMapsPool.Get().(*simMaps)
	clear(m.lineLeader)
	clear(m.lastStoreTo)
	return m
}

func releaseSimMaps(m *simMaps) { simMapsPool.Put(m) }

// newMachine builds the machine for n timed instructions. The graph
// and node-time scratch come from the depgraph pools; finish either
// hands them to the caller (KeepGraph) or returns them.
func newMachine(prog *program.Program, cfg Config, opt Options, n int) *machine {
	m := &machine{
		cfg:           cfg,
		prog:          prog,
		hier:          cache.NewHierarchy(cfg.Cache),
		pred:          bpred.New(cfg.Pred),
		pool:          fu.NewPool(cfg.FU),
		storePorts:    fu.NewSched(cfg.StoreCommitBW),
		f:             opt.Ideal,
		g:             depgraph.NewPooled(cfg.Graph, n),
		times:         depgraph.AcquireTimes(n),
		n:             n,
		maps:          acquireSimMaps(),
		curFetchCycle: -1,
		mask:          math.MaxInt,
		horizon:       math.MaxInt,
	}
	m.gcfg = &m.cfg.Graph
	m.st.Insts = n
	for i := range m.lastWriter {
		m.lastWriter[i] = -1
	}
	return m
}

// touchCode runs the program text through the icache once, so that
// code lines whose first execution falls after the warmup window hit
// the L2 rather than memory — the paper's runs skip billions of
// instructions, after which no code line is memory-cold.
func (m *machine) touchCode() {
	for pc := m.prog.PCOf(0); pc < m.prog.PCOf(m.prog.Len()-1); pc += isa.Addr(m.cfg.Cache.LineBytes) {
		m.hier.InstAccess(pc)
	}
}

// warm runs one instruction through the stateful components (caches,
// TLBs, branch predictor) without timing it.
func (m *machine) warm(sin *isa.Inst, din *trace.DynInst) {
	m.hier.InstAccess(sin.PC)
	if sin.Op.IsBranch() {
		pr := m.pred.Predict(sin)
		m.pred.Update(sin, din.Taken, din.Target, pr)
	}
	if sin.Op.IsMem() {
		m.hier.DataAccess(din.Addr)
	}
}

// step simulates one timed instruction: functional component updates,
// graph-edge materialization, and the five node times.
//
//lint:hotpath
func (m *machine) step(sin *isa.Inst, din *trace.DynInst) {
	i := m.i
	m.i++
	g, times, gcfg, f := m.g, m.times, m.gcfg, m.f
	mask := m.mask
	mi := i & mask
	if m.windowed {
		// The ring slot still holds a long-retired instruction's
		// records; reset it to NewPooled's initial state.
		g.Prod1[mi], g.Prod2[mi], g.PPLeader[mi] = -1, -1, -1
		g.DDBreak[mi], g.RELat[mi], g.CCLat[mi] = 0, 0, 0
	}
	info := depgraph.InstInfo{Op: sin.Op, SIdx: din.SIdx}

	// --- Functional front end: icache and branch predictor ---
	ir := m.hier.InstAccess(sin.PC)
	info.ILevel = ir.Level
	info.ITLBMiss = ir.TLBMiss
	if ir.Level != cache.LevelL1 {
		m.st.IL1Misses++
		if ir.Level == cache.LevelMem {
			m.st.IL2Misses++
		}
	}
	if ir.TLBMiss {
		m.st.ITLBMisses++
	}
	if sin.Op.IsBranch() {
		pr := m.pred.Predict(sin)
		mis := pr.Taken != din.Taken || (din.Taken && pr.Target != din.Target)
		m.pred.Update(sin, din.Taken, din.Target, pr)
		info.Mispredict = mis
		if sin.Op.IsCondBranch() {
			m.st.CondBranches++
		}
		if mis {
			m.st.Mispredicts++
			if m.cfg.ModelWrongPath {
				wrongPathFetch(m.hier, m.prog, pr.Target,
					gcfg.FetchBW*gcfg.BranchRecovery)
			}
		}
	}

	// --- Functional memory access ---
	if sin.Op.IsMem() {
		dr := m.hier.DataAccess(din.Addr)
		info.DataLevel = dr.Level
		info.DTLBMiss = dr.TLBMiss
		if sin.Op.IsLoad() {
			m.st.Loads++
		} else {
			m.st.Stores++
		}
		if dr.Level != cache.LevelL1 {
			m.st.DL1Misses++
			if dr.Level == cache.LevelMem {
				m.st.L2Misses++
			}
		}
		if dr.TLBMiss {
			m.st.DTLBMisses++
		}
		if sin.Op.IsLoad() && dr.Level == cache.LevelL1 {
			if l, ok := m.maps.lineLeader[dr.Line]; ok {
				g.PPLeader[mi] = l
			}
		}
		granule := din.Addr &^ 7
		if sin.Op.IsStore() {
			m.maps.lastStoreTo[granule] = int32(i)
		} else if s, ok := m.maps.lastStoreTo[granule]; ok {
			// Store-to-load dependence: the load's value comes
			// from the in-flight (or committed) store. Loads have
			// a single register source, so the second producer
			// slot is free for the memory dependence.
			g.Prod2[mi] = s
			m.st.StoreForwards++
		}
	}

	// --- Register producers (PR edges) ---
	var srcs [2]isa.Reg
	ns := 0
	if sin.Src1 != isa.NoReg && sin.Src1 != isa.RZero {
		srcs[ns] = sin.Src1
		ns++
	}
	if sin.Src2 != isa.NoReg && sin.Src2 != isa.RZero {
		srcs[ns] = sin.Src2
		ns++
	}
	if ns > 0 {
		g.Prod1[mi] = m.lastWriter[srcs[0]]
	}
	if ns > 1 {
		g.Prod2[mi] = m.lastWriter[srcs[1]]
	}

	g.Info[mi] = info

	// --- D node: dispatch ---
	var d int64
	if i > 0 {
		pi := (i - 1) & mask
		d = times.D[pi] + g.DDLat(mi, f) // DDBreak not yet set: pure icache part
		if g.Info[pi].Mispredict && f&depgraph.IdealBMisp == 0 {
			d = max(d, times.P[pi]+int64(gcfg.BranchRecovery))
		}
	} else {
		d = g.DDLat(mi, f)
	}
	if f&depgraph.IdealBW == 0 && i >= gcfg.FetchBW {
		d = max(d, times.D[(i-gcfg.FetchBW)&mask]+1)
	}
	w := gcfg.Window
	if f&depgraph.IdealWindow != 0 {
		w *= gcfg.WindowIdealFactor
	}
	if i >= w {
		d = max(d, times.C[(i-w)&mask])
	}
	// Taken-branch fetch break: if this instruction lands in a
	// fetch cycle that already holds MaxTakenPerCycle taken
	// branches, push it to the next cycle and record the bubble
	// on the DD edge.
	if f&depgraph.IdealBW == 0 && d == m.curFetchCycle && m.takenInCycle >= m.cfg.MaxTakenPerCycle {
		d++
		g.DDBreak[mi] = 1
	}
	if d != m.curFetchCycle {
		m.curFetchCycle = d
		m.takenInCycle = 0
	}
	if sin.Op.IsBranch() && din.Taken {
		m.takenInCycle++
	}
	times.D[mi] = d

	// --- R node: operands ready ---
	// Producer reads are horizon-guarded: a producer more than a full
	// re-order window back has completed long before this dispatch and
	// cannot lift readiness (the ValidateWindowed precondition); in
	// full mode the guard is vacuous.
	r := d + int64(gcfg.DispatchToReady)
	wake := int64(gcfg.WakeupExtra)
	if p := g.Prod1[mi]; p >= 0 && i-int(p) <= m.horizon {
		r = max(r, times.P[int(p)&mask]+wake)
	}
	if p := g.Prod2[mi]; p >= 0 && i-int(p) <= m.horizon {
		r = max(r, times.P[int(p)&mask]+wake)
	}
	times.R[mi] = r

	// --- E node: issue, arbitrating functional units ---
	// Every later instruction dispatches at or after d and books at
	// or after its dispatch, so the cycles before d retire.
	e := r
	if f&depgraph.IdealBW == 0 {
		m.pool.Retire(d)
		e = m.pool.Book(sin.Op.FU(), r)
		g.RELat[mi] = int32(e - r)
	}
	times.E[mi] = e

	// --- P node: completion (EP edge + line sharing) ---
	// A leader beyond the horizon has P(l) ≤ C(i-w) ≤ this dispatch
	// time ≤ p already, so skipping the read changes neither p nor
	// the partial-miss count.
	p := e + g.EPLat(mi, f)
	if l := g.PPLeader[mi]; l >= 0 && i-int(l) <= m.horizon && f&depgraph.IdealDMiss == 0 {
		if times.P[int(l)&mask] > p {
			m.st.PartialMisses++
			p = times.P[int(l)&mask]
		}
	}
	times.P[mi] = p
	if sin.Op.IsLoad() && info.DataLevel != cache.LevelL1 {
		m.maps.lineLeader[m.hier.L1D.Line(din.Addr)] = int32(i)
	}

	// --- C node: commit ---
	c := p + int64(gcfg.CompleteToCommit)
	if i > 0 {
		c = max(c, times.C[(i-1)&mask])
	}
	if f&depgraph.IdealBW == 0 && i >= gcfg.CommitBW {
		c = max(c, times.C[(i-gcfg.CommitBW)&mask]+1)
	}
	// Store-commit bandwidth: stores contend for retire ports;
	// the delay is recorded on the CC edge so graph replay stays
	// exact (it requires i > 0, which holds for any delayed
	// store since a delay implies an earlier store this cycle).
	if sin.Op.IsStore() && f&depgraph.IdealBW == 0 {
		m.storePorts.Retire(c) // later commits land at or after c
		booked := m.storePorts.Book(c)
		if booked > c && i > 0 {
			g.CCLat[mi] = int32(booked - times.C[(i-1)&mask])
			c = booked
		}
	}
	times.C[mi] = c

	// --- Architectural register update ---
	if sin.HasDst() {
		m.lastWriter[sin.Dst] = int32(i)
	}
}

// finish runs the graph replay check and assembles the result. When
// keep is false the pooled graph and node times go straight back to
// their pools — the multisim hot loop builds and drops one graph per
// idealized re-simulation. The address maps are always recycled.
func (m *machine) finish(keep bool) (*Result, error) {
	res := &Result{Stats: m.st}
	if m.n > 0 {
		res.Cycles = m.times.C[m.n-1] + 1
	}
	// Internal consistency: the graph must replay to the simulated
	// time under the same idealization. This is cheap relative to
	// simulation and guards the exactness invariant the cost engine
	// relies on.
	replay := m.g.ExecTime(depgraph.Ideal{Global: m.f})
	releaseSimMaps(m.maps)
	m.maps = nil
	if replay != res.Cycles {
		m.drop()
		return nil, fmt.Errorf("ooo: graph replay %d != simulated %d cycles", replay, res.Cycles)
	}
	if keep {
		res.Graph = m.g
		res.Times = m.times
		m.g, m.times = nil, nil
	} else {
		m.drop()
	}
	return res, nil
}

// abort releases everything the machine holds without producing a
// result; SimulateStream uses it on cancellation and stream error.
func (m *machine) abort() {
	if m.maps != nil {
		releaseSimMaps(m.maps)
		m.maps = nil
	}
	m.drop()
}

// drop returns the pooled graph and node times.
func (m *machine) drop() {
	if m.g != nil {
		m.g.Release()
		m.g = nil
	}
	if m.times != nil {
		depgraph.ReleaseTimes(m.times)
		m.times = nil
	}
}
