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
	"maps"
	"math/bits"
	"sync"

	"icost/internal/depgraph"
	"icost/internal/isa"
)

// Analyzer computes costs over one microexecution, memoizing
// whole-category queries (the working set of a breakdown is the
// power set of eight flags, so memoization turns the 2^n cost
// queries of a full accounting into at most 256 evaluations).
// Concurrent misses for the same flags are single-flighted: one
// goroutine evaluates, the rest wait on its result. Power-set
// workloads (ICostCtx, breakdowns, matrices) collect their uncached
// terms and evaluate them through the graph's batched multi-lane
// walk instead of one scalar walk per term.
//
// The evaluation backend is pluggable: New evaluates idealizations on
// a dependence graph (the paper's efficient method); NewFromBatchFunc
// takes any batch evaluator — package multisim re-runs idealized
// simulations (the paper's expensive baseline), the engine re-folds a
// windowed stream — and NewFromFunc a scalar one. Everything
// downstream — icosts, breakdowns, experiments — is agnostic to the
// backend; batching degrades to sequential evaluation on a scalar
// function backend.
type Analyzer struct {
	g    *depgraph.Graph // nil for function-backed analyzers
	eval func(context.Context, depgraph.Flags) (int64, error)
	// evalBatch evaluates many flag sets in one call; PrewarmCtx
	// routes through it when set. Graph-backed analyzers use the
	// multi-lane graph walk; NewFromBatchFunc supplies the caller's
	// (multisim's worker pool, the engine's windowed re-fold).
	evalBatch func(context.Context, []depgraph.Flags) ([]int64, error)

	mu      sync.Mutex
	memo    map[depgraph.Flags]int64
	flight  map[depgraph.Flags]*evalFlight
	setMemo map[[sha256.Size]byte]int64
	// scaledMemo memoizes global parametric idealizations by flags
	// plus canonical scale vector — the α-aware sibling of memo.
	// Misses are batch-evaluated (SensitivityCtx) or evaluated inline
	// (execTimeSet); concurrent misses may duplicate a walk but always
	// store identical values, so no flight tracking is needed.
	scaledMemo map[scaledKey]int64
	onBatch    func(lanes int)
}

// scaledKey is the memo identity of a global parametric idealization:
// the selected categories plus the canonical scale vector (entries of
// unselected categories zeroed, values clamped), so two idealizations
// differing only in scale never collide and two differing only on
// ignored entries always coincide.
type scaledKey struct {
	f depgraph.Flags
	s depgraph.ScaleVec
}

// evalFlight is one in-progress evaluation shared by every goroutine
// that missed the memo for the same flags.
type evalFlight struct {
	done chan struct{}
	t    int64
	err  error
}

// New builds a graph-backed analyzer. The base (unidealized) time is
// evaluated lazily — flags 0 is an ordinary memo entry, so when the
// first query is a power-set prewarm the base rides the same batched
// walk as the other subset unions instead of costing a scalar walk
// up front.
func New(g *depgraph.Graph) *Analyzer {
	a := newAnalyzer(g, func(ctx context.Context, f depgraph.Flags) (int64, error) {
		return g.ExecTimeCtx(ctx, depgraph.Ideal{Global: f})
	})
	a.evalBatch = func(ctx context.Context, flags []depgraph.Flags) ([]int64, error) {
		ids := make([]depgraph.Ideal, len(flags))
		for i, f := range flags {
			ids[i] = depgraph.Ideal{Global: f}
		}
		return g.EvalBatch(ctx, ids)
	}
	return a
}

// NewFromFunc builds an analyzer whose execution times come from
// eval — e.g. idealized re-simulation. Event-set methods that need a
// graph (CostSet, ICostSets) panic on such an analyzer. Cancellation
// is checked between evaluations but cannot interrupt eval itself.
func NewFromFunc(eval func(depgraph.Flags) int64) *Analyzer {
	return newAnalyzer(nil, func(ctx context.Context, f depgraph.Flags) (int64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return eval(f), nil
	})
}

// NewFromBatchFunc builds an analyzer whose execution times come from
// evalBatch, which must return one time per flag set, in order. Every
// memo miss goes through it: PrewarmCtx hands it all missing flag sets
// in one call, so a backend with a per-call cost (a windowed re-fold)
// or internal parallelism (multisim's re-simulation worker pool) pays
// once per batch, and a scalar miss is a batch of one. known seeds the
// flags memo with times already evaluated (nil for none); those are
// never re-evaluated. Event-set methods that need a graph (CostSet,
// ICostSets) panic on such an analyzer.
func NewFromBatchFunc(evalBatch func(context.Context, []depgraph.Flags) ([]int64, error),
	known map[depgraph.Flags]int64) *Analyzer {
	a := newAnalyzer(nil, func(ctx context.Context, f depgraph.Flags) (int64, error) {
		times, err := evalBatch(ctx, []depgraph.Flags{f})
		if err != nil {
			return 0, err
		}
		return times[0], nil
	})
	a.evalBatch = evalBatch
	maps.Copy(a.memo, known)
	return a
}

func newAnalyzer(g *depgraph.Graph, eval func(context.Context, depgraph.Flags) (int64, error)) *Analyzer {
	return &Analyzer{
		g: g, eval: eval,
		memo:       map[depgraph.Flags]int64{},
		flight:     map[depgraph.Flags]*evalFlight{},
		setMemo:    map[[sha256.Size]byte]int64{},
		scaledMemo: map[scaledKey]int64{},
	}
}

// SetBatchObserver installs a hook invoked with the lane count of
// every batched graph evaluation the analyzer issues — the engine
// uses it to export a batch-size distribution. Install it before the
// analyzer is shared between goroutines.
func (a *Analyzer) SetBatchObserver(fn func(lanes int)) {
	a.mu.Lock()
	a.onBatch = fn
	a.mu.Unlock()
}

// Graph returns the underlying graph, or nil for a function-backed
// analyzer.
func (a *Analyzer) Graph() *depgraph.Graph { return a.g }

// Known returns a copy of the flags memo: every whole-category
// execution time evaluated or seeded so far, keyed by flags.
func (a *Analyzer) Known() map[depgraph.Flags]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return maps.Clone(a.memo)
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
// evaluation aborts mid-walk when ctx is done. Only successful
// evaluations are memoized, so a cancelled query never poisons the
// cache for later callers. Concurrent misses for the same flags are
// single-flighted: one goroutine runs the evaluation, the others
// wait on it (a waiter whose own ctx expires first returns its
// ctx.Err(); if the leader fails, each live waiter retries).
func (a *Analyzer) ExecTimeCtx(ctx context.Context, f depgraph.Flags) (int64, error) {
	for {
		a.mu.Lock()
		if t, ok := a.memo[f]; ok {
			a.mu.Unlock()
			return t, nil
		}
		if fl, ok := a.flight[f]; ok {
			a.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			if fl.err == nil {
				return fl.t, nil
			}
			// The leader failed — typically its own cancellation.
			// Retry with our ctx rather than inheriting the error.
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			continue
		}
		fl := &evalFlight{done: make(chan struct{})}
		a.flight[f] = fl
		a.mu.Unlock()

		t, err := a.eval(ctx, f)
		a.mu.Lock()
		delete(a.flight, f)
		if err == nil {
			a.memo[f] = t
		}
		a.mu.Unlock()
		fl.t, fl.err = t, err
		close(fl.done)
		return t, err
	}
}

// PrewarmCtx memoizes every listed mask, evaluating the not-yet-known
// ones in one batched multi-lane graph walk (2-8x fewer passes over
// the graph metadata than mask-by-mask scalar walks). Duplicates are
// collapsed; masks already memoized or in flight elsewhere are not
// re-evaluated. On a function-backed analyzer without a batch
// evaluator it degrades to sequential evaluation.
func (a *Analyzer) PrewarmCtx(ctx context.Context, masks []depgraph.Flags) error {
	if a.evalBatch == nil {
		for _, f := range masks {
			if _, err := a.ExecTimeCtx(ctx, f); err != nil {
				return err
			}
		}
		return nil
	}
	a.mu.Lock()
	onBatch := a.onBatch
	seen := make(map[depgraph.Flags]bool, len(masks))
	var lead []depgraph.Flags // masks this call evaluates
	var flights []*evalFlight // their flight entries, same order
	var wait []depgraph.Flags // masks some other goroutine is evaluating
	for _, f := range masks {
		if seen[f] {
			continue
		}
		seen[f] = true
		if _, ok := a.memo[f]; ok {
			continue
		}
		if _, ok := a.flight[f]; ok {
			wait = append(wait, f)
			continue
		}
		fl := &evalFlight{done: make(chan struct{})}
		a.flight[f] = fl
		lead = append(lead, f)
		flights = append(flights, fl)
	}
	a.mu.Unlock()

	if len(lead) > 0 {
		times, err := a.evalBatch(ctx, lead)
		if onBatch != nil {
			onBatch(len(lead))
		}
		a.mu.Lock()
		for i, f := range lead {
			delete(a.flight, f)
			if err == nil {
				a.memo[f] = times[i]
			}
		}
		a.mu.Unlock()
		for i, fl := range flights {
			if err == nil {
				fl.t = times[i]
			}
			fl.err = err
			close(fl.done)
		}
		if err != nil {
			return err
		}
	}
	for _, f := range wait {
		if _, err := a.ExecTimeCtx(ctx, f); err != nil {
			return err
		}
	}
	return nil
}

// Cost returns cost(f) = t - t(f) for a union of whole categories.
func (a *Analyzer) Cost(f depgraph.Flags) int64 {
	return a.BaseTime() - a.ExecTime(f)
}

// CostCtx is Cost with cancellation.
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

// ICostCtx is ICost with cancellation; the 2^k cost evaluations abort
// as soon as ctx is done. All uncached subset unions of the Möbius
// sum are collected first and evaluated in one batched graph walk,
// then the sum is assembled from the memo.
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
	unions := make([]depgraph.Flags, 1<<k)
	for m := 1; m < 1<<k; m++ {
		var union depgraph.Flags
		for j := 0; j < k; j++ {
			if m&(1<<j) != 0 {
				union |= sets[j]
			}
		}
		unions[m] = union
	}
	if err := a.PrewarmCtx(ctx, unions); err != nil {
		return 0, err
	}
	// Möbius sum over subsets of {1..k}; every term is a memo hit.
	var total int64
	for m := 0; m < 1<<k; m++ {
		term, err := a.CostCtx(ctx, unions[m])
		if err != nil {
			return 0, err
		}
		if (k-bits.OnesCount(uint(m)))%2 == 1 {
			term = -term
		}
		total += term
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

// execTimeSet returns the memoized execution time of an arbitrary
// event set. Global binary sets share the whole-category memo, global
// parametric sets the scaled memo; per-instruction sets are memoized
// by their effective-vector hash (which covers the scale).
func (a *Analyzer) execTimeSet(id depgraph.Ideal) int64 {
	if id.PerInst == nil {
		canon := depgraph.CanonScale(id.Global, id.Scale)
		if canon.IsZero() {
			return a.ExecTime(id.Global)
		}
		key := scaledKey{f: id.Global, s: canon}
		a.mu.Lock()
		t, ok := a.scaledMemo[key]
		a.mu.Unlock()
		if ok {
			return t
		}
		t = a.g.ExecTime(depgraph.Ideal{Global: id.Global, Scale: canon})
		a.mu.Lock()
		a.scaledMemo[key] = t
		a.mu.Unlock()
		return t
	}
	key := a.setKey(id)
	a.mu.Lock()
	t, ok := a.setMemo[key]
	a.mu.Unlock()
	if ok {
		return t
	}
	t = a.g.ExecTime(id)
	a.mu.Lock()
	a.setMemo[key] = t
	a.mu.Unlock()
	return t
}

// CostSet returns the cost of an arbitrary event set expressed as an
// idealization (possibly per-instruction), memoized by the set's
// effective flag vector. Panics on a function-backed analyzer, which
// has no graph to evaluate.
func (a *Analyzer) CostSet(id depgraph.Ideal) int64 {
	if a.g == nil {
		panic("cost: CostSet requires a graph-backed analyzer")
	}
	return a.BaseTime() - a.execTimeSet(id)
}

// ICostSets returns the interaction cost of arbitrary event sets.
// The union of sets is the OR of their masks. The 2^k subset unions
// are built up front, the uncached ones evaluated in one batched
// graph walk, and every term memoized by its effective-vector hash;
// intended for small k (pairs and triples).
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
	for m := 1; m < 1<<k; m++ {
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
		unions[m] = id
	}
	a.prewarmSets(unions)
	base := a.BaseTime()
	var total int64
	for m := 0; m < 1<<k; m++ {
		term := base - a.execTimeSet(unions[m])
		if (k-bits.OnesCount(uint(m)))%2 == 1 {
			term = -term
		}
		total += term
	}
	return total
}

// prewarmSets batch-evaluates the per-instruction unions whose
// effective-vector hash is not yet memoized (global-only unions ride
// the whole-category memo via PrewarmCtx instead).
func (a *Analyzer) prewarmSets(unions []depgraph.Ideal) {
	var globals []depgraph.Flags
	var miss []depgraph.Ideal
	var keys [][sha256.Size]byte
	seen := make(map[[sha256.Size]byte]bool, len(unions))
	a.mu.Lock()
	onBatch := a.onBatch
	for _, id := range unions {
		if id.PerInst == nil {
			globals = append(globals, id.Global)
			continue
		}
		key := a.setKey(id)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := a.setMemo[key]; ok {
			continue
		}
		miss = append(miss, id)
		keys = append(keys, key)
	}
	a.mu.Unlock()
	if len(miss) > 0 {
		// Background context: ICostSets is infallible by contract, and
		// an uncancellable batch cannot fail.
		//lint:ignore ctxflow uncancellable-by-contract batch; a failure panics below
		times, err := a.g.EvalBatch(context.Background(), miss)
		if err != nil {
			panic("cost: uncancellable batch failed: " + err.Error())
		}
		if onBatch != nil {
			onBatch(len(miss))
		}
		a.mu.Lock()
		for i, key := range keys {
			a.setMemo[key] = times[i]
		}
		a.mu.Unlock()
	}
	if len(globals) > 0 {
		//lint:ignore ctxflow uncancellable-by-contract prewarm; a failure panics below
		if err := a.PrewarmCtx(context.Background(), globals); err != nil {
			panic("cost: uncancellable batch failed: " + err.Error())
		}
	}
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
