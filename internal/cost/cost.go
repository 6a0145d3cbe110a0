// Package cost implements the paper's cost and interaction-cost
// (icost) analysis (Section 2) on top of the dependence-graph model.
//
// The cost of a set of events S is the speedup from idealizing S:
//
//	cost(S) = t - t(S)
//
// where t is the base execution time and t(S) the time with S
// idealized. The interaction cost of event sets S1..Sk generalizes
//
//	icost({a,b}) = cost({a,b}) - cost(a) - cost(b)
//
// recursively: icost(U) = cost(U) - Σ icost(V) over proper subsets V,
// which by Möbius inversion equals
//
//	icost(U) = Σ_{V ⊆ U} (-1)^{|U|-|V|} cost(V).
//
// A positive icost is a parallel interaction (speedup available only
// by optimizing the sets together), a negative icost a serial
// interaction (optimizing either one alone captures shared cycles),
// and zero means the sets are independent.
//
// Event sets are expressed as depgraph idealizations: a whole
// category (e.g. all data-cache misses) is a depgraph.Flags value; an
// arbitrary dynamic subset (e.g. the misses of one static load) is a
// per-instruction mask. Costs come from graph re-evaluation — the
// paper's efficient alternative to 2^n simulations.
package cost

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"icost/internal/depgraph"
	"icost/internal/isa"
)

// Eval is the one signature every execution-time backend implements:
// it returns t(S) for each idealization in ids, in order. The graph
// walk (New), a windowed session's re-fold of its stream and idealized
// re-simulation (package multisim) all plug in through it, so every
// query below — and every later cross-check between backends — asks
// each of them the same question. A backend that cannot express one of
// the idealizations fails the whole call with an error.
type Eval func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error)

// Analyzer computes costs over one microexecution through one memo of
// execution times, keyed by canonical idealization (memoKey). Every
// query — a whole-category time, a power-set prewarm, the Möbius terms
// of an icost, a sensitivity grid, an arbitrary event set — reads
// through it under one lock and sends its misses to the backend in one
// call, so a breakdown's 2^n cost queries cost at most 256
// evaluations, a repeated query is pure memo arithmetic, and a backend
// with a per-call cost (a windowed re-fold) or internal parallelism
// (the multi-lane graph walk, multisim's worker pool) pays once per
// batch. Concurrent misses of one idealization are single-flighted:
// one goroutine evaluates, the rest wait on its result.
//
// Everything downstream — icosts, breakdowns, sensitivity curves,
// experiments — is agnostic to the backend. The event-set methods
// (CostSet, ICostSets) key per-instruction sets by the graph's length,
// so they need a graph-backed analyzer.
type Analyzer struct {
	g    *depgraph.Graph // nil for non-graph backends
	eval Eval

	mu      sync.Mutex
	memo    map[memoKey]int64
	flight  map[memoKey]*evalFlight
	onBatch func(lanes int)
}

// memoKey is the canonical identity of an idealization. A
// whole-category one is its flags and scale vector with the entries of
// unselected categories zeroed and every category at α=1 dropped — each
// kernel treats it as unselected — so idealizations differing only in
// ignored entries share one entry, and a binary one (scale all zero) is
// its flags alone. A per-instruction one is the digest of its effective
// vector (setKey), with flags and scale zero.
type memoKey struct {
	f   depgraph.Flags
	s   depgraph.ScaleVec
	set [sha256.Size]byte
}

// globalKey is the canonical key of a whole-category idealization.
func globalKey(f depgraph.Flags, s depgraph.ScaleVec) memoKey {
	s = depgraph.CanonScale(f, s)
	for b, al := range s {
		if al == depgraph.AlphaOne {
			f &^= 1 << b
			s[b] = 0
		}
	}
	return memoKey{f: f, s: s}
}

// keyOf returns the canonical key of id.
func (a *Analyzer) keyOf(id depgraph.Ideal) memoKey {
	if id.PerInst == nil {
		return globalKey(id.Global, id.Scale)
	}
	return memoKey{set: a.setKey(id)}
}

// evalFlight is one in-progress evaluation shared by every goroutine
// that missed the memo for the same key.
type evalFlight struct {
	done chan struct{}
	t    int64
	err  error
}

// New builds a graph-backed analyzer. A batch of misses runs as one
// multi-lane walk (EvalBatch); a single miss runs the scalar walk,
// which takes about half the time of a one-lane fold (0.5 against
// 1.1 ms on a 20k-instruction gcc graph). The
// base time is an ordinary memo entry evaluated lazily, so when the
// first query is a power-set prewarm the base rides the same walk as
// the other subset unions.
func New(g *depgraph.Graph) *Analyzer {
	a := NewFromEval(nil, nil)
	a.g = g
	a.eval = func(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
		if len(ids) == 1 {
			t, err := g.ExecTimeCtx(ctx, ids[0])
			if err != nil {
				return nil, err
			}
			return []int64{t}, nil
		}
		times, err := g.EvalBatch(ctx, ids)
		a.mu.Lock()
		onBatch := a.onBatch
		a.mu.Unlock()
		if onBatch != nil {
			onBatch(len(ids))
		}
		return times, err
	}
	return a
}

// NewFromEval builds an analyzer over any backend — multisim's
// re-simulation, the engine's windowed re-fold. known seeds the memo
// with whole-category times already evaluated (nil for none); those
// are never re-evaluated. Event-set methods that need a graph
// (CostSet, ICostSets) panic on such an analyzer.
func NewFromEval(eval Eval, known map[depgraph.Flags]int64) *Analyzer {
	a := &Analyzer{
		eval:   eval,
		memo:   make(map[memoKey]int64, len(known)),
		flight: map[memoKey]*evalFlight{},
	}
	for f, t := range known {
		a.memo[memoKey{f: f}] = t
	}
	return a
}

// SetBatchObserver installs a hook invoked with the lane count of
// every batched graph walk a graph-backed analyzer runs — the engine
// uses it to export a batch-size distribution. Install it before the
// analyzer is shared between goroutines.
func (a *Analyzer) SetBatchObserver(fn func(lanes int)) {
	a.mu.Lock()
	a.onBatch = fn
	a.mu.Unlock()
}

// Graph returns the underlying graph, or nil for a non-graph backend.
func (a *Analyzer) Graph() *depgraph.Graph { return a.g }

// Known returns the binary entries of the memo: every whole-category
// execution time evaluated or seeded so far, keyed by flags. Scaled
// and per-instruction entries are left out.
func (a *Analyzer) Known() map[depgraph.Flags]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[depgraph.Flags]int64, len(a.memo))
	for k, t := range a.memo {
		if k.s.IsZero() && k.set == ([sha256.Size]byte{}) {
			out[k.f] = t
		}
	}
	return out
}

// resolve reads n execution times through the memo. key(i) is the
// i-th idealization's canonical key; set(i) supplies the idealization
// behind a per-instruction key, which cannot be inverted (nil when the
// call has none); put(i, t) receives each time (nil to only fill the
// memo). Under one lock resolve takes every hit and claims a flight
// for every miss no one else is evaluating, so a call that hits
// throughout locks once and allocates nothing; put runs under that
// lock for hits and must not call back into the analyzer. The claimed
// misses go to the backend in one call. A key in flight elsewhere, or
// listed twice, waits on its flight; if that flight's leader failed
// (typically its own cancellation), the waiter retries with its own
// ctx. Only successful evaluations are memoized, so a cancelled query
// never poisons the memo.
func (a *Analyzer) resolve(ctx context.Context, n int, key func(int) memoKey,
	set func(int) depgraph.Ideal, put func(int, int64)) error {
	var retry []int // indices whose leader failed; nil: every index
	for {
		todo := n
		if retry != nil {
			todo = len(retry)
		}
		var lead, wait []int
		var leadFl, waitFl []*evalFlight
		a.mu.Lock()
		for j := 0; j < todo; j++ {
			i := j
			if retry != nil {
				i = retry[j]
			}
			k := key(i)
			if t, ok := a.memo[k]; ok {
				if put != nil {
					put(i, t)
				}
				continue
			}
			if fl, ok := a.flight[k]; ok {
				wait, waitFl = append(wait, i), append(waitFl, fl)
				continue
			}
			fl := &evalFlight{done: make(chan struct{})}
			a.flight[k] = fl
			lead, leadFl = append(lead, i), append(leadFl, fl)
		}
		a.mu.Unlock()

		if len(lead) > 0 {
			ids := make([]depgraph.Ideal, len(lead))
			for j, i := range lead {
				if k := key(i); k.set == ([sha256.Size]byte{}) {
					ids[j] = depgraph.Ideal{Global: k.f, Scale: k.s}
				} else {
					ids[j] = set(i)
				}
			}
			times, err := a.eval(ctx, ids)
			if err == nil && len(times) != len(ids) {
				err = fmt.Errorf("cost: backend returned %d times for %d idealizations", len(times), len(ids))
			}
			a.mu.Lock()
			for j, i := range lead {
				k := key(i)
				delete(a.flight, k)
				if err == nil {
					a.memo[k] = times[j]
				}
			}
			a.mu.Unlock()
			for j, fl := range leadFl {
				if err == nil {
					fl.t = times[j]
					if put != nil {
						put(lead[j], fl.t)
					}
				}
				fl.err = err
				close(fl.done)
			}
			if err != nil {
				return err
			}
		}
		retry = nil
		for j, i := range wait {
			fl := waitFl[j]
			select {
			case <-fl.done:
			case <-ctx.Done():
				return ctx.Err()
			}
			if fl.err == nil {
				if put != nil {
					put(i, fl.t)
				}
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			retry = append(retry, i)
		}
		if retry == nil {
			return nil
		}
	}
}

// BaseTime returns the unidealized execution time in cycles
// (memoized after the first call).
func (a *Analyzer) BaseTime() int64 { return a.ExecTime(0) }

// ExecTime returns the execution time with the given categories
// idealized (memoized). Safe for concurrent use.
//
//lint:ignore ctxflow infallible wrapper over ExecTimeCtx; a background ctx cannot cancel
func (a *Analyzer) ExecTime(f depgraph.Flags) int64 {
	t, _ := a.ExecTimeCtx(context.Background(), f)
	return t
}

// ExecTimeCtx is ExecTime with cancellation: a graph-backed
// evaluation aborts mid-walk when ctx is done. A miss is a batch of
// one, single-flighted with every concurrent miss of the same flags.
// A hit — the hottest read, behind every BaseTime — is one locked map
// read, without resolve's per-key calls (they double its cost).
func (a *Analyzer) ExecTimeCtx(ctx context.Context, f depgraph.Flags) (int64, error) {
	a.mu.Lock()
	t, ok := a.memo[memoKey{f: f}]
	a.mu.Unlock()
	if ok {
		return t, nil
	}
	err := a.resolve(ctx, 1, func(int) memoKey { return memoKey{f: f} }, nil,
		func(_ int, v int64) { t = v })
	return t, err
}

// PrewarmCtx memoizes every listed mask, evaluating the not-yet-known
// ones in one backend call — on a graph, one batched multi-lane walk
// (2-8x fewer passes over the graph metadata than mask-by-mask scalar
// walks). Duplicates are collapsed; masks already memoized or in
// flight elsewhere are not re-evaluated.
func (a *Analyzer) PrewarmCtx(ctx context.Context, masks []depgraph.Flags) error {
	return a.resolve(ctx, len(masks), func(i int) memoKey { return memoKey{f: masks[i]} }, nil, nil)
}

// PrewarmIdealsCtx is PrewarmCtx for whole-category idealizations that
// may carry scale vectors: each is memoized under its canonical key, so
// an α of 0 fills a binary entry and an α of 1 the base. A
// per-instruction idealization is rejected.
func (a *Analyzer) PrewarmIdealsCtx(ctx context.Context, ids []depgraph.Ideal) error {
	for k := range ids {
		if ids[k].PerInst != nil {
			return fmt.Errorf("cost: prewarm idealization %d has a per-instruction mask", k)
		}
	}
	return a.resolve(ctx, len(ids), func(i int) memoKey { return globalKey(ids[i].Global, ids[i].Scale) }, nil, nil)
}

// Cost returns cost(f) = t - t(f) for a union of whole categories.
func (a *Analyzer) Cost(f depgraph.Flags) int64 {
	return a.BaseTime() - a.ExecTime(f)
}

// CostCtx is Cost with cancellation. The base and t(f) are two reads,
// so on a cold graph each miss is a scalar walk rather than a padded
// two-lane batch.
func (a *Analyzer) CostCtx(ctx context.Context, f depgraph.Flags) (int64, error) {
	base, err := a.ExecTimeCtx(ctx, 0)
	if err != nil {
		return 0, err
	}
	t, err := a.ExecTimeCtx(ctx, f)
	if err != nil {
		return 0, err
	}
	return base - t, nil
}

// ICost returns the interaction cost of the given category sets.
// Each argument is one event set; sets must be disjoint (no shared
// flag bits), since overlapping sets make the power-set accounting
// ill-defined. With one argument it degenerates to Cost.
//
//lint:ignore ctxflow infallible wrapper over ICostCtx; a background ctx cannot cancel
func (a *Analyzer) ICost(sets ...depgraph.Flags) (int64, error) {
	return a.ICostCtx(context.Background(), sets...)
}

// union is the OR of the sets whose bits are set in m.
func union(sets []depgraph.Flags, m int) depgraph.Flags {
	var u depgraph.Flags
	for j, s := range sets {
		if m&(1<<j) != 0 {
			u |= s
		}
	}
	return u
}

// Unions lists the 2^k subset unions of sets, entry m holding the union
// of the sets whose bits are set in m (the base at m = 0): the memo
// entries an icost over sets reads, and a full breakdown's power set.
func Unions(sets []depgraph.Flags) []depgraph.Flags {
	out := make([]depgraph.Flags, 1<<len(sets))
	for m := range out {
		out[m] = union(sets, m)
	}
	return out
}

// mobius adds subset m's term of a k-set Möbius sum, given t(m), to
// *total. Over all subsets the signs (-1)^{k-|m|} sum to zero for
// k >= 1, so the base time cancels out of Σ ±(t - t(m)) and the sum
// is -Σ (-1)^{k-|m|} t(m), with t(∅) = t among the terms.
func mobius(total *int64, k, m int, t int64) {
	if (k-bits.OnesCount(uint(m)))%2 == 1 {
		*total += t
	} else {
		*total -= t
	}
}

// ICostCtx is ICost with cancellation; the 2^k cost evaluations abort
// as soon as ctx is done. Every subset union of the Möbius sum, the
// base included, is read through the memo in one call, its misses
// evaluated in one backend call.
func (a *Analyzer) ICostCtx(ctx context.Context, sets ...depgraph.Flags) (int64, error) {
	k := len(sets)
	if k == 0 {
		return 0, nil
	}
	var seen depgraph.Flags
	for _, s := range sets {
		if s == 0 {
			return 0, fmt.Errorf("cost: empty event set")
		}
		if seen&s != 0 {
			return 0, fmt.Errorf("cost: overlapping event sets %v", sets)
		}
		seen |= s
	}
	var total int64
	err := a.resolve(ctx, 1<<k, func(m int) memoKey { return memoKey{f: union(sets, m)} },
		nil, func(m int, t int64) { mobius(&total, k, m, t) })
	if err != nil {
		return 0, err
	}
	return total, nil
}

// MustICost is ICost that panics on misuse (for internal callers that
// construct sets programmatically).
func (a *Analyzer) MustICost(sets ...depgraph.Flags) int64 {
	v, err := a.ICost(sets...)
	if err != nil {
		panic(err)
	}
	return v
}

// setKey is the memo identity of a per-instruction event set: a
// SHA-256 digest of the effective flag vector (Of(i) for every i)
// followed by the canonical scale entries of the categories the set
// touches. Two Ideals that idealize the same events at the same scale
// — regardless of how the flags are split between Global and PerInst,
// or what the scale vector says about untouched categories — share
// one entry; two differing only in α never collide.
func (a *Analyzer) setKey(id depgraph.Ideal) [sha256.Size]byte {
	n := a.g.Len()
	buf := make([]byte, 2*n+2*depgraph.NumFlags)
	var used depgraph.Flags
	for i := 0; i < n; i++ {
		f := id.Of(i)
		used |= f
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(f))
	}
	canon := depgraph.CanonScale(used, id.Scale)
	for b := 0; b < depgraph.NumFlags; b++ {
		binary.LittleEndian.PutUint16(buf[2*n+2*b:], uint16(canon[b]))
	}
	return sha256.Sum256(buf)
}

// CostSet returns the cost of an arbitrary event set expressed as an
// idealization (possibly per-instruction, possibly scaled) — the
// one-set case of ICostSets. Panics on a non-graph analyzer.
func (a *Analyzer) CostSet(id depgraph.Ideal) int64 {
	return a.ICostSets(id)
}

// ICostSets returns the interaction cost of arbitrary event sets.
// The union of sets is the OR of their masks. The 2^k subset unions
// are built up front and read through the memo in one call — global
// unions by their canonical flags and scale, per-instruction ones by
// their effective-vector digest — with the misses evaluated in one
// batched graph walk; intended for small k (pairs and triples).
// Infallible by contract, and graph-only: panics on a non-graph
// analyzer, which cannot key per-instruction sets.
//
//lint:ignore ctxflow infallible by contract: a background ctx cannot cancel, so a failure panics
func (a *Analyzer) ICostSets(sets ...depgraph.Ideal) int64 {
	if a.g == nil {
		panic("cost: ICostSets requires a graph-backed analyzer")
	}
	k := len(sets)
	if k == 0 {
		return 0
	}
	n := a.g.Len()
	unions := make([]depgraph.Ideal, 1<<k)
	keys := make([]memoKey, 1<<k)
	for m := range unions {
		var id depgraph.Ideal
		for j := 0; j < k; j++ {
			if m&(1<<j) == 0 {
				continue
			}
			s := sets[j]
			id.Global |= s.Global
			// Scales merge entry-wise by max: disjoint sets own
			// disjoint categories, so each entry comes from the one
			// set that selects it. Callers mixing scaled and binary
			// sets over the same category get the larger α.
			for b := 0; b < depgraph.NumFlags; b++ {
				if s.Scale[b] > id.Scale[b] {
					id.Scale[b] = s.Scale[b]
				}
			}
			if s.PerInst != nil {
				if id.PerInst == nil {
					id.PerInst = make([]depgraph.Flags, n)
				}
				for i, f := range s.PerInst {
					id.PerInst[i] |= f
				}
			}
		}
		unions[m], keys[m] = id, a.keyOf(id)
	}
	var total int64
	err := a.resolve(context.Background(), len(keys), func(m int) memoKey { return keys[m] },
		func(m int) depgraph.Ideal { return unions[m] },
		func(m int, t int64) { mobius(&total, k, m, t) })
	if err != nil {
		panic("cost: uncancellable batch failed: " + err.Error())
	}
	return total
}

// Interaction classifies an icost value per Section 2.2.
type Interaction int

const (
	// Serial: negative interaction — events are in series with each
	// other and parallel with something else.
	Serial Interaction = -1
	// Independent: zero interaction.
	Independent Interaction = 0
	// Parallel: positive interaction — speedup available only by
	// optimizing the sets together.
	Parallel Interaction = 1
)

// String names the interaction kind.
func (x Interaction) String() string {
	switch {
	case x < 0:
		return "serial"
	case x > 0:
		return "parallel"
	default:
		return "independent"
	}
}

// Classify maps an icost (in cycles) to its interaction kind, using
// tolerance cycles as the independence band.
func Classify(icost, tolerance int64) Interaction {
	switch {
	case icost > tolerance:
		return Parallel
	case icost < -tolerance:
		return Serial
	default:
		return Independent
	}
}

// EventSet builds a per-instruction event set: flags applied to every
// instruction i for which pred(i) is true. Use it for event groupings
// such as "all dynamic misses of one static load".
func EventSet(g *depgraph.Graph, flags depgraph.Flags, pred func(i int) bool) depgraph.Ideal {
	per := make([]depgraph.Flags, g.Len())
	for i := range per {
		if pred(i) {
			per[i] = flags
		}
	}
	return depgraph.Ideal{PerInst: per}
}

// StaticLoadMisses builds the event set "idealize the data-cache
// misses of static instruction sIdx" — the unit a software-prefetching
// optimizer reasons about (paper Sections 1-2).
func StaticLoadMisses(g *depgraph.Graph, sIdx int32) depgraph.Ideal {
	return EventSet(g, depgraph.IdealDMiss, func(i int) bool {
		return g.Info[i].SIdx == sIdx && g.Info[i].Op == isa.OpLoad
	})
}
