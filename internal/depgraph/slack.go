package depgraph

// Slack analysis: the companion metric to cost from the same research
// line (Fields, Bodík & Hill, "Slack: maximizing performance under
// technological constraints", ISCA 2002 — reference [11] of the
// paper). The slack of a node is how late it could occur without
// lengthening execution; an instruction with large slack can be
// delayed, de-optimized, or steered to a slower, cheaper resource for
// free, which is the paper's "de-optimization" use case for
// zero-cost events (Section 1).

import (
	"context"

	"icost/internal/faultinject"
)

// Latest holds, for every node, the latest time it can occur without
// extending total execution time. By construction Latest >= the
// corresponding NodeTimes value, with equality exactly on critical
// nodes.
type Latest struct {
	D, R, E, P, C []int64

	// arena is non-nil when the slices came from pooled scratch;
	// releaseLatest recycles it.
	arena *memArena
}

const inf = int64(1) << 62

// at returns one node's latest-time slot. The switch is exhaustive
// over the five kinds: a sixth node kind must say where its slot
// lives, not silently alias the commit column.
func (l *Latest) at(k NodeKind, i int) *int64 {
	switch k {
	case NodeD:
		return &l.D[i]
	case NodeR:
		return &l.R[i]
	case NodeE:
		return &l.E[i]
	case NodeP:
		return &l.P[i]
	case NodeC:
		return &l.C[i]
	default:
		panic("depgraph: unknown NodeKind " + k.String())
	}
}

// LatestTimes runs the backward pass: starting from the final commit
// pinned at its actual time, each edge source's latest time is
// min(latest(dst) - latency) over its out-edges. Unconstrained nodes
// (no path to the final commit) keep their actual times, giving them
// zero slack contribution beyond program end. LatestTimes is
// infallible (the background context cannot cancel the passes), so
// the results are never nil.
//
//lint:ignore ctxflow infallible wrapper over LatestTimesCtx; a background ctx cannot cancel
func (g *Graph) LatestTimes(id Ideal) (*Times, *Latest) {
	t, l, err := g.LatestTimesCtx(context.Background(), id)
	if err != nil {
		panic("depgraph: background-context walk failed: " + err.Error())
	}
	return t, l
}

// LatestTimesCtx is LatestTimes with cancellation: both the forward
// and backward passes poll ctx every ctxCheckStride instructions.
func (g *Graph) LatestTimesCtx(ctx context.Context, id Ideal) (*Times, *Latest, error) {
	n := g.Len()
	t, err := g.runCtx(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	l := &Latest{
		D: make([]int64, n), R: make([]int64, n), E: make([]int64, n),
		P: make([]int64, n), C: make([]int64, n),
	}
	if err := g.latestInto(ctx, id, t, l); err != nil {
		return nil, nil, err
	}
	return t, l, nil
}

// latestInto runs the backward pass into l, whose slices must be
// Len() long; every element is initialized here, so pooled scratch
// needs no zeroing.
//
// The pass visits instructions backward and, within an instruction,
// nodes in reverse pipeline order (C, P, E, R, D); every edge goes
// forward in this order, so one pass suffices. Each node's in-edges
// are enumerated implicitly from the flat CSR columns — the exact
// constraint set InEdges materializes — relaxing each source to
// min(source, dest latest - latency). A node still unconstrained when
// visited (no path to the final commit) pins to its actual time so
// slack reads zero-extra, matching the explicit-edge enumeration
// bit for bit without allocating a single Edge.
//
//lint:hotpath
func (g *Graph) latestInto(ctx context.Context, id Ideal, t *Times, l *Latest) error {
	// Fault hook: backward-pass walks, cancellable contexts only (see
	// runInto).
	if ctx.Done() != nil {
		if err := faultinject.Hit(ctx, faultinject.GraphWalk); err != nil {
			return err
		}
	}
	n := g.Len()
	lD, lR, lE, lP, lC := l.D, l.R, l.E, l.P, l.C
	for i := 0; i < n; i++ {
		lD[i], lR[i], lE[i], lP[i], lC[i] = inf, inf, inf, inf, inf
	}
	if n == 0 {
		return nil
	}
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
	lt := laneTable{cfg: cfg, s: id.Scale}
	glob, per := id.Global, id.PerInst
	ln := lt.of(glob)

	lC[n-1] = t.C[n-1]
	for i := n - 1; i >= 0; i-- {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if per != nil {
			ln = lt.of(glob | per[i])
		}

		// --- C node; in-edges PC, CC, CBW ---
		toC := lC[i]
		if toC == inf {
			toC = t.C[i]
			lC[i] = toC
		}
		if v := toC - pc; v < lP[i] { // PC: P(i) -> C(i)
			lP[i] = v
		}
		if i > 0 { // CC: C(i-1) -> C(i)
			if cc := toC - scaleLat(int64(ccL[i]), ln.bwM); cc < lC[i-1] {
				lC[i-1] = cc
			}
		}
		if ln.bwM > 0 && i >= cbw { // CBW: C(i-cbw) -> C(i), lat 1
			if v := toC - 1; v < lC[i-cbw] {
				lC[i-cbw] = v
			}
		}

		// --- P node; in-edges EP, PP ---
		toP := lP[i]
		if toP == inf {
			toP = t.P[i]
			lP[i] = toP
		}
		ep := scaleLat(int64(epL[i]), ln.ep[epC[i]&(numEPClasses-1)]) + // EP: E(i) -> P(i)
			scaleLat(int64(epDm[i]), ln.dmM)
		if v := toP - ep; v < lE[i] {
			lE[i] = v
		}
		if lead := ld[i]; lead >= 0 && ln.dmM > 0 { // PP: P(leader) -> P(i), lat 0
			if toP < lP[lead] {
				lP[lead] = toP
			}
		}

		// --- E node; in-edge RE ---
		toE := lE[i]
		if toE == inf {
			toE = t.E[i]
			lE[i] = toE
		}
		if re := toE - scaleLat(int64(reL[i]), ln.bwM); re < lR[i] { // RE: R(i) -> E(i)
			lR[i] = re
		}

		// --- R node; in-edges DR, PR ---
		toR := lR[i]
		if toR == inf {
			toR = t.R[i]
			lR[i] = toR
		}
		if v := toR - dr; v < lD[i] { // DR: D(i) -> R(i)
			lD[i] = v
		}
		if p := pr1[i]; p >= 0 { // PR: P(prod) -> R(i)
			if v := toR - wake; v < lP[p] {
				lP[p] = v
			}
		}
		if p := pr2[i]; p >= 0 {
			if v := toR - wake; v < lP[p] {
				lP[p] = v
			}
		}

		// --- D node; in-edges DD, PD, FBW, CD ---
		toD := lD[i]
		if toD == inf {
			toD = t.D[i]
			lD[i] = toD
		}
		if i > 0 {
			// DD: D(i-1) -> D(i), icache + fetch break
			dd := scaleLat(int64(ddB[i]), ln.bwM) + scaleLat(int64(ic[i]), ln.icM)
			if v := toD - dd; v < lD[i-1] {
				lD[i-1] = v
			}
			// PD: P(i-1) -> D(i), gated and scaled by the branch's flags.
			if mp[i] != 0 {
				recM := ln.recM
				if per != nil {
					recM = lt.of(glob | per[i-1]).recM
				}
				if recM > 0 {
					if v := toD - scaleLat(rec, recM); v < lP[i-1] {
						lP[i-1] = v
					}
				}
			}
		}
		if ln.bwM > 0 && i >= fbw { // FBW: D(i-fbw) -> D(i), lat 1
			if v := toD - 1; v < lD[i-fbw] {
				lD[i-fbw] = v
			}
		}
		if i >= ln.win { // CD: C(i-w) -> D(i), lat 0
			if toD < lC[i-ln.win] {
				lC[i-ln.win] = toD
			}
		}
	}
	return nil
}

// Slacks returns each instruction's global slack: how many cycles its
// completion (P node) can slip without lengthening execution. Zero
// slack marks critical instructions. Slacks is infallible (the
// background context cannot cancel the passes), so the result is
// never nil.
//
//lint:ignore ctxflow infallible wrapper over SlacksCtx; a background ctx cannot cancel
func (g *Graph) Slacks(id Ideal) []int64 {
	out, err := g.SlacksCtx(context.Background(), id)
	if err != nil {
		panic("depgraph: background-context walk failed: " + err.Error())
	}
	return out
}

// SlacksCtx is Slacks with cancellation. Both passes run on pooled
// scratch: only the returned slack slice is allocated.
//
//lint:hotpath allocs=1
func (g *Graph) SlacksCtx(ctx context.Context, id Ideal) ([]int64, error) {
	n := g.Len()
	t := acquireTimes(n)
	defer releaseTimes(t)
	if err := g.runInto(ctx, id, t); err != nil {
		return nil, err
	}
	l := acquireLatest(n)
	defer releaseLatest(l)
	if err := g.latestInto(ctx, id, t, l); err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = l.P[i] - t.P[i]
	}
	return out, nil
}

// CriticalTally walks one critical path and sums its edge latencies
// by edge kind — the classic "where do the cycles go" attribution
// that icost breakdowns refine. Zero-latency edges on the path are
// counted in Edges but contribute no cycles.
type Tally struct {
	// Cycles per edge kind along the critical path.
	Cycles [12]int64
	// Edges per edge kind along the critical path.
	Edges [12]int
	// Total is the sum of Cycles (equals the critical-path length
	// minus the first node's start time).
	Total int64
}

// CriticalTally computes the per-edge-kind attribution of one
// critical path under the given idealization.
func (g *Graph) CriticalTally(id Ideal) Tally {
	var t Tally
	for _, e := range g.CriticalPath(id) {
		t.Cycles[e.Kind] += e.Lat
		t.Edges[e.Kind]++
		t.Total += e.Lat
	}
	return t
}
