package depgraph

import (
	"context"
	"fmt"
	"math"

	"icost/internal/cache"
)

// Windowed long-trace evaluation. A whole-trace Graph holds ~56 bytes
// of records per instruction — tens of millions of instructions means
// gigabytes resident before a single query runs. But the graph model
// itself is local: every edge reaches back a bounded number of
// instructions (the re-order buffer for CD edges — at most
// Window×WindowIdealFactor under the infinite-window idealization —
// and FetchBW/CommitBW for the bandwidth edges; producer and
// line-sharing edges can reach arbitrarily far back as *records*, but
// beyond the window depth they can never bind, see below). So the
// forward recurrence streams: the simulator emits bounded Window
// blocks of CSR records, and WindowEval folds each block into
// per-idealization node-time rings whose size depends only on the
// machine configuration — never on trace length.
//
// Boundary-edge carry and exactness. The carry depth K = CarryDepth()
// = max(Window×WindowIdealFactor, FetchBW, CommitBW) bounds how far
// back any *binding* edge can reach, for every global idealization:
// commit times are monotone (the CC edge chains every instruction),
// and the CD edge — present under every idealization, merely widened
// by IdealWindow — forces D(i) ≥ C(i−w). A producer p more than w
// behind i therefore has P(p) ≤ C(p) − CompleteToCommit ≤ C(i−w) −
// CompleteToCommit ≤ D(i) − CompleteToCommit, so its PR edge cannot
// lift R(i) = max(D(i) + DispatchToReady, P(p) + WakeupExtra) as long
// as WakeupExtra ≤ DispatchToReady + CompleteToCommit — the
// ValidateWindowed precondition. Line-sharing PP edges are
// unconditional: P(leader) ≤ C(i−w) ≤ D(i) ≤ P(i) already. So the
// fold ignores refs farther back than K, and it is bit-identical to
// the whole-graph scalar walk — FuzzWindowFold and the window
// package's tests prove this against full simulations.
//
// The argument holds over a whole graph too, so the batch walk
// (EvalBatch) is this same fold over the graph's columns as one block.
//
// The horizon rule (Horizon) is the one place every pass reads its
// reach from — the simulator's ring and producer horizon, the fold's
// carry, the block log's reach and EvalBatch: min(K, n) for a pass of
// n instructions, and n for a configuration that fails
// ValidateWindowed. A horizon of n ignores nothing and never wraps a
// ring, so that pass is exact by construction; it only costs n ring
// rows per lane.
//
// The arrays are per-kind edge columns exactly like Graph's — the
// same CSR layout, windowed.

// NoRef marks an absent cross-window reference in a Window's
// producer/leader columns. Distinct from -1, which is a valid relative
// reference (the instruction before the window start).
const NoRef = int32(math.MinInt32)

// Window is one bounded block of dependence-graph records emitted by
// the streaming simulator, or a whole graph's columns viewed at Lo = 0.
// Producer and leader references are relative to Lo (absolute index
// Lo+rel; negative values reach into earlier windows, and the fold
// ignores those farther back than the carry depth, which the
// argument above proves lossless).
type Window struct {
	// Lo is the absolute dynamic index of the first instruction.
	Lo int64
	// N is the number of instructions in the block.
	N int

	Info     []InstInfo
	DDBreak  []uint8
	RELat    []int32
	CCLat    []int32
	Prod1    []int32 // relative to Lo, or NoRef
	Prod2    []int32 // relative to Lo, or NoRef
	PPLeader []int32 // relative to Lo, or NoRef
	// MispPrev[j] != 0 marks instruction Lo+j-1 as a mispredicted
	// branch (the PD-edge gate; carried explicitly because the
	// previous instruction may live in an earlier, discarded window).
	MispPrev []uint8
}

// Resize prepares the window to hold n instructions starting at
// absolute index lo, growing the columns as needed. Contents are
// unspecified; the filler overwrites every element.
func (w *Window) Resize(lo int64, n int) {
	w.Lo, w.N = lo, n
	if cap(w.Info) < n {
		w.Info = make([]InstInfo, n)
		w.DDBreak = make([]uint8, n)
		w.RELat = make([]int32, n)
		w.CCLat = make([]int32, n)
		w.Prod1 = make([]int32, n)
		w.Prod2 = make([]int32, n)
		w.PPLeader = make([]int32, n)
		w.MispPrev = make([]uint8, n)
	}
	w.Info = w.Info[:n]
	w.DDBreak = w.DDBreak[:n]
	w.RELat = w.RELat[:n]
	w.CCLat = w.CCLat[:n]
	w.Prod1 = w.Prod1[:n]
	w.Prod2 = w.Prod2[:n]
	w.PPLeader = w.PPLeader[:n]
	w.MispPrev = w.MispPrev[:n]
}

// CopyFrom makes w a copy of src, reusing w's backing arrays. A
// consumer that folds blocks on another goroutine copies each one, so
// the emitter can refill its own block at once.
func (w *Window) CopyFrom(src *Window) {
	w.Resize(src.Lo, src.N)
	copy(w.Info, src.Info)
	copy(w.DDBreak, src.DDBreak)
	copy(w.RELat, src.RELat)
	copy(w.CCLat, src.CCLat)
	copy(w.Prod1, src.Prod1)
	copy(w.Prod2, src.Prod2)
	copy(w.PPLeader, src.PPLeader)
	copy(w.MispPrev, src.MispPrev)
}

// Bytes is the block's backing-store footprint, for budget accounting.
func (w *Window) Bytes() int64 {
	const instInfoBytes = int64(16) // Op+SIdx+flags+levels, padded
	n := int64(cap(w.Info))
	return n*instInfoBytes + n /*DDBreak*/ + 5*4*n /*int32 columns*/ + n /*MispPrev*/
}

// CarryDepth is the maximum backward reach, in instructions, of any
// binding edge under any global idealization of this configuration:
// the idealized re-order window, or a bandwidth-edge span if wider.
func (c *Config) CarryDepth() int {
	k := c.Window * c.WindowIdealFactor
	if c.FetchBW > k {
		k = c.FetchBW
	}
	if c.CommitBW > k {
		k = c.CommitBW
	}
	return k
}

// ValidateWindowed extends Validate with the carry argument's
// precondition: a producer beyond the re-order window must never bind
// through its PR edge, which requires the wakeup latency not to exceed
// the dispatch-to-ready plus complete-to-commit path (see the package
// comment above; the Table 6 machine satisfies it with room). A
// configuration that fails it is still evaluated exactly, at a horizon
// of the whole stream (Horizon).
func (c *Config) ValidateWindowed() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.WakeupExtra > c.DispatchToReady+c.CompleteToCommit {
		return fmt.Errorf("depgraph: carry argument requires WakeupExtra (%d) <= DispatchToReady (%d) + CompleteToCommit (%d)",
			c.WakeupExtra, c.DispatchToReady, c.CompleteToCommit)
	}
	return nil
}

// Horizon is how far back, in instructions, a pass over n instructions
// keeps and reads references: min(CarryDepth, n) where the carry
// argument holds, and n where it does not, a horizon at which nothing
// is ignored and no ring wraps.
func (c *Config) Horizon(n int) int {
	if c.ValidateWindowed() != nil {
		return n
	}
	return min(c.CarryDepth(), n)
}

// FoldRows is the node-time ring rows one lane of a fold over n
// instructions holds: the power of two above the horizon, so every
// instruction the fold reads back to is still resident, and at most n,
// since a ring longer than the fold never wraps and only its first n
// rows are touched. A lane's rings are 3 × 8 bytes per row.
func (c *Config) FoldRows(n int) int {
	return int(min(ringAbove(c.Horizon(n)), int64(n)))
}

// ringAbove is the smallest power of two above h.
func ringAbove(h int) int64 {
	ring := int64(1)
	for ring < int64(h)+1 {
		ring <<= 1
	}
	return ring
}

// WindowEval folds Window blocks into execution times under a fixed
// set of idealizations, holding only carry-deep node-time rings:
// memory is O(min(CarryDepth, stream length) × lanes). Blocks
// must be fed in stream order. Every lane's effective window stays
// within [Window, Window×WindowIdealFactor], whatever its scale, so the
// carry depth and the exactness argument above hold for parametric
// lanes too.
//
// The fold is the package's one multi-lane forward kernel: a
// streaming windowed pass feeds it the simulator's blocks, and
// EvalBatch feeds it a whole graph as a single block (batch.go).
type WindowEval struct {
	cfg   Config
	lanes []foldLane
	// tabs holds one lane table per distinct scale vector among the
	// per-instruction lanes; empty when every lane is global.
	tabs []laneTable

	carry int64 // reference horizon: farther-back refs are ignored
	rmask int64 // ring index mask (ring size - 1, power of two)
	limit int64 // instructions the rings were sized for

	// Node-time rings, ring-slot-major × lane: index (abs&rmask)*L+w.
	// R and E never cross instructions and stay in registers.
	d, p, c []int64

	n int64 // instructions folded so far
}

// foldLane is one lane of a fold. A global lane's multipliers are
// resolved once; a lane with a per-instruction mask looks each
// instruction's lane up in tabs[tab], the lane table it shares with
// every masked lane of the same scale vector.
type foldLane struct {
	scaledLane
	glob Flags
	per  []Flags
	tab  int
}

// NewWindowEvalIdeals builds an evaluator for a stream of n
// instructions under the given configuration and idealization lanes,
// which may carry parametric scale factors. Lanes must be global: a
// stream has no per-instruction identity to apply a mask against.
func NewWindowEvalIdeals(cfg Config, ids []Ideal, n int) (*WindowEval, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("depgraph: windowed evaluation needs at least one idealization lane")
	}
	for k := range ids {
		if ids[k].PerInst != nil {
			return nil, fmt.Errorf("depgraph: windowed evaluation lanes must be global (lane %d has a per-instruction mask)", k)
		}
	}
	if n < 1 {
		return nil, fmt.Errorf("depgraph: windowed evaluation of %d instructions", n)
	}
	we := &WindowEval{cfg: cfg}
	we.setLanes(ids)
	size := we.setCarry(n) * len(ids)
	we.d = make([]int64, size)
	we.p = make([]int64, size)
	we.c = make([]int64, size)
	return we, nil
}

// setLanes resolves the lanes' multipliers, sharing one lane table
// among the per-instruction lanes of each scale vector.
func (we *WindowEval) setLanes(ids []Ideal) {
	we.lanes = make([]foldLane, len(ids))
	for w := range ids {
		id := &ids[w]
		we.lanes[w] = foldLane{scaledLane: scaledLaneOf(&we.cfg, id.Global, id.Scale), glob: id.Global, per: id.PerInst}
		if id.PerInst == nil {
			continue
		}
		k := 0
		for k < len(we.tabs) && we.tabs[k].s != id.Scale {
			k++
		}
		if k == len(we.tabs) {
			we.tabs = append(we.tabs, laneTable{cfg: &we.cfg, s: id.Scale})
		}
		we.lanes[w].tab = k
	}
}

// setCarry sizes the fold for n instructions at the configuration's
// horizon and returns the ring rows each lane needs (FoldRows).
func (we *WindowEval) setCarry(n int) int {
	h := we.cfg.Horizon(n)
	we.carry, we.rmask, we.limit = int64(h), ringAbove(h)-1, int64(n)
	return we.cfg.FoldRows(n)
}

// Insts returns how many instructions have been folded.
func (we *WindowEval) Insts() int64 { return we.n }

// RingBytes is the evaluator's node-time ring footprint.
func (we *WindowEval) RingBytes() int64 {
	return 3 * int64(len(we.d)) * 8
}

// Feed folds one block, polling ctx every ctxCheckStride
// instructions. Blocks must arrive in stream order: win.Lo must equal
// the number of instructions already folded, and the stream may not
// run past the length the evaluator was sized for. After an error the
// evaluator is unusable.
func (we *WindowEval) Feed(ctx context.Context, win *Window) error {
	if win.Lo != we.n {
		return fmt.Errorf("depgraph: window starts at %d, evaluator at %d", win.Lo, we.n)
	}
	if end := win.Lo + int64(win.N); end > we.limit {
		return fmt.Errorf("depgraph: window ends at %d, evaluator sized for %d instructions", end, we.limit)
	}
	if err := we.fold(ctx, win); err != nil {
		return err
	}
	we.n += int64(win.N)
	return nil
}

// fold is the forward kernel: one pass over the block's records, a
// fixed-width inner loop over the lanes, node times in carry-deep
// rings. A producer or leader farther back than the carry horizon is
// ignored (it cannot bind; see the exactness argument above).
//
//lint:hotpath
func (we *WindowEval) fold(ctx context.Context, win *Window) error {
	cfg := &we.cfg
	lanes, tabs := we.lanes, we.tabs
	anyPer := len(tabs) > 0
	L := int64(len(lanes))
	D, P, C := we.d, we.p, we.c
	rmask, carry := we.rmask, we.carry
	dr := int64(cfg.DispatchToReady)
	pc := int64(cfg.CompleteToCommit)
	rec := int64(cfg.BranchRecovery)
	wake := int64(cfg.WakeupExtra)
	fbw, cbw := int64(cfg.FetchBW), int64(cfg.CommitBW)
	dl1 := int64(cfg.DL1Latency)
	l2 := int64(cfg.L2Latency)
	mem := int64(cfg.L2Latency) + int64(cfg.MemLatency)
	tlb := int64(cfg.TLBMissLatency)

	for j := 0; j < win.N; j++ {
		if j%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		abs := win.Lo + int64(j)
		// Decompose this instruction's latencies once; the cost
		// amortizes over every lane.
		epL, cls, dmL, icL := decomposeLat(&win.Info[j], dl1, l2, mem, tlb)
		cls &= numEPClasses - 1
		ddBreak := int64(win.DDBreak[j])
		reLat := int64(win.RELat[j])
		ccLat := int64(win.CCLat[j])
		misp := win.MispPrev[j] != 0

		// Ring rows, -1 where the edge is absent, so the per-lane
		// guards below stay a sign test. A reference reaches back at
		// most to the stream start and at most the carry horizon.
		row := (abs & rmask) * L
		prevRow, fbwRow, cbwRow := int64(-1), int64(-1), int64(-1)
		if abs > 0 {
			prevRow = ((abs - 1) & rmask) * L
		}
		if abs >= fbw {
			fbwRow = ((abs - fbw) & rmask) * L
		}
		if abs >= cbw {
			cbwRow = ((abs - cbw) & rmask) * L
		}
		reach := min(abs, carry)
		p1Row := refRow(win.Prod1[j], int64(j), abs, reach, rmask, L)
		p2Row := refRow(win.Prod2[j], int64(j), abs, reach, rmask, L)
		leadRow := refRow(win.PPLeader[j], int64(j), abs, reach, rmask, L)

		dRow := D[row : row+L]
		pRow := P[row : row+L]
		cRow := C[row : row+L]
		for w := int64(0); w < L; w++ {
			ln := &lanes[w].scaledLane
			// The PD edge is gated and scaled by the branch's (i-1's)
			// effective flags; instruction 0 is never misp.
			recM := ln.recM
			if anyPer {
				if fl := &lanes[w]; fl.per != nil {
					tab := &tabs[fl.tab]
					ln = tab.of(fl.glob | fl.per[abs])
					if misp {
						recM = tab.of(fl.glob | fl.per[abs-1]).recM
					}
				}
			}
			d := scaleLat(ddBreak, ln.bwM) + scaleLat(icL, ln.icM)
			if prevRow >= 0 {
				d += D[prevRow+w]
				if misp && recM > 0 {
					if v := P[prevRow+w] + scaleLat(rec, recM); v > d {
						d = v
					}
				}
			}
			if ln.bwM > 0 && fbwRow >= 0 {
				if v := D[fbwRow+w] + 1; v > d {
					d = v
				}
			}
			if win := int64(ln.win); abs >= win {
				if v := C[((abs-win)&rmask)*L+w]; v > d {
					d = v
				}
			}
			dRow[w] = d

			r := d + dr
			if p1Row >= 0 {
				if v := P[p1Row+w] + wake; v > r {
					r = v
				}
			}
			if p2Row >= 0 {
				if v := P[p2Row+w] + wake; v > r {
					r = v
				}
			}

			e := r + scaleLat(reLat, ln.bwM)

			p := e + scaleLat(epL, ln.ep[cls]) + scaleLat(dmL, ln.dmM)
			if leadRow >= 0 && ln.dmM > 0 {
				if v := P[leadRow+w]; v > p {
					p = v
				}
			}
			pRow[w] = p

			c := p + pc
			if prevRow >= 0 {
				if cc := C[prevRow+w] + scaleLat(ccLat, ln.bwM); cc > c {
					c = cc
				}
			}
			if ln.bwM > 0 && cbwRow >= 0 {
				if v := C[cbwRow+w] + 1; v > c {
					c = v
				}
			}
			cRow[w] = c
		}
	}
	return nil
}

// refRow converts a reference relative to the block start into the
// ring row of the instruction it names, seen from block offset j
// (absolute abs), or -1 when it reaches back more than reach: past the
// stream start (a -1 before instruction 0, or a NoRef) or past the
// carry horizon.
func refRow(rel int32, j, abs, reach, rmask, lanes int64) int64 {
	back := j - int64(rel)
	if back > reach {
		return -1
	}
	return ((abs - back) & rmask) * lanes
}

// decomposeLat is the shared per-instruction latency decomposition
// (csr.go's buildTables and the window evaluator agree by
// construction: both call it with the same inputs). The EP latency is
// ep, scaled by the category of class, plus the miss component dm;
// ic is the icache component of the DD edge.
func decomposeLat(info *InstInfo, dl1, l2, mem, tlb int64) (ep int64, class uint8, dm, ic int64) {
	op := info.Op
	switch {
	case op.IsMem():
		ep, class = dl1, epClassDL1
		if info.DTLBMiss {
			dm += tlb
		}
		switch info.DataLevel {
		case cache.LevelL2:
			dm += l2
		case cache.LevelMem:
			dm += mem
		}
	case op.IsShortALU():
		ep, class = 1, epClassShort
	case op.IsLongALU():
		ep, class = BaseExecLat(op), epClassLong
	default:
		ep, class = BaseExecLat(op), epClassFixed
	}
	if info.ITLBMiss {
		ic = tlb
	}
	switch info.ILevel {
	case cache.LevelL2:
		ic += l2
	case cache.LevelMem:
		ic += mem
	}
	return
}

// ExecTimes returns, per lane, the execution time of everything
// folded so far: the last commit time plus one (zero before any
// instructions).
func (we *WindowEval) ExecTimes() []int64 {
	out := make([]int64, len(we.lanes))
	we.execTimesInto(out)
	return out
}

// execTimesInto is ExecTimes into a zeroed out of one entry per lane.
func (we *WindowEval) execTimesInto(out []int64) {
	if we.n == 0 {
		return
	}
	row := ((we.n - 1) & we.rmask) * int64(len(we.lanes))
	for w := range out {
		out[w] = we.c[row+int64(w)] + 1
	}
}
