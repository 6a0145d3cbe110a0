// Package faultinject is a deterministic, seeded fault-injection
// layer for the analysis service. The paper's measurements are only
// trustworthy if the machinery under them stays honest when parts of
// it misbehave (the §5 shotgun profiler is explicitly built to
// tolerate lossy, fragmentary samples); this package makes every
// failure path testable on demand instead of waiting for production
// to find it.
//
// Design:
//
//   - Named injection points (Point) are threaded through the cold
//     path (trace generation, simulation, block-log replay, graph
//     build/walk), the
//     engine (queue admission, session build, result-cache put) and
//     the icostd query handler. Each point is one call to Hit.
//   - When no plan is armed, Hit is a single atomic pointer load and
//     a nil check — zero cost, no build tags, safe to leave in
//     production binaries.
//   - A plan (Enable) arms rules: a rule can return an error, inject
//     latency (honoring ctx so an injected stall is still
//     cancellable), or force real context cancellation through a
//     cancel function registered with Register/WithCancel.
//   - Firing is deterministic: rules fire by hit count (After, Count)
//     and, when probabilistic (Prob), draw from a PRNG seeded by
//     Enable — the same seed replays the same fault schedule.
//
// Stats exposes per-point hit and fired counters so a chaos suite can
// assert every point was actually exercised.
package faultinject

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site. The constants below are the
// complete set; Points returns them for coverage assertions.
type Point string

const (
	// WorkloadGen fires in the trace-generation producer, once per
	// emitted segment.
	WorkloadGen Point = "workload.gen"
	// OOOSim fires in the streaming simulator, once per consumed
	// segment.
	OOOSim Point = "ooo.sim"
	// OOOGraph fires after the stream is drained, just before the
	// dependence graph is finalized (replay check + assembly).
	OOOGraph Point = "ooo.graph"
	// WindowReplay fires in a windowed pass that replays a recorded
	// block log instead of simulating, once per decoded block.
	WindowReplay Point = "window.replay"
	// GraphWalk fires at the entry of every cancellable graph walk
	// (scalar recurrence, batched evaluation, latest-times pass, and a
	// windowed pass, which walks the stream's graph block by block).
	// Walks issued through the infallible background-context wrappers
	// are exempt by contract — their callers are promised no error.
	GraphWalk Point = "depgraph.walk"
	// EngineAdmit fires at queue admission, before a job is enqueued.
	EngineAdmit Point = "engine.admit"
	// EngineExec fires when a worker picks a query job up, before any
	// session or analysis work. A latency rule here occupies the
	// worker for its duration — the knob the shard topology guard
	// (internal/router) uses to pin per-query service time, so shard
	// capacity follows worker count, not the host's CPU count.
	EngineExec Point = "engine.exec"
	// EngineBuild fires at the top of every session-build attempt
	// (inside the retry loop, so Count=1 exercises retry-then-succeed).
	EngineBuild Point = "engine.build"
	// EngineCachePut fires before a computed response is inserted into
	// the result cache; a fault skips the insert (the cache is an
	// optimization, so the query still succeeds).
	EngineCachePut Point = "engine.cacheput"
	// DaemonQuery fires at the top of the icostd /query handler.
	DaemonQuery Point = "icostd.query"
	// FleetIngest fires at the top of every fleet sample-batch ingest,
	// before the batch touches its aggregate.
	FleetIngest Point = "fleet.ingest"
	// FleetMerge fires inside the aggregate merge, after the batch is
	// staged but before it is committed — a fault here must leave the
	// aggregate exactly as it was (merges are transactional).
	FleetMerge Point = "fleet.merge"
	// FleetSnapshot fires at the top of every session snapshot encode
	// and decode (engine SnapshotSession / RestoreSession).
	FleetSnapshot Point = "fleet.snapshot"
	// RouterForward fires before every request the router proxies to a
	// backend shard. An error here models the backend dying mid-query
	// (connection severed); latency models a slow shard, which is what
	// hedged reads exist to absorb.
	RouterForward Point = "router.forward"
	// RouterReplicate fires before every snapshot push the router ships
	// to a replica backend — a fault models a replica refusing or
	// corrupting a hot-session copy.
	RouterReplicate Point = "router.replicate"
)

// Points returns every defined injection point, for chaos-suite
// coverage loops.
func Points() []Point {
	return []Point{
		WorkloadGen, OOOSim, OOOGraph, WindowReplay, GraphWalk,
		EngineAdmit, EngineExec, EngineBuild, EngineCachePut, DaemonQuery,
		FleetIngest, FleetMerge, FleetSnapshot,
		RouterForward, RouterReplicate,
	}
}

// Rule arms one fault at one point. Exactly the actions whose fields
// are set are applied, in order: latency first (so a fault can model
// a slow failure), then cancellation, then the returned error.
type Rule struct {
	Point Point
	// Err, when non-nil, is returned from Hit.
	Err error
	// Latency, when positive, delays Hit by that long (or until ctx
	// is done, whichever is first).
	Latency time.Duration
	// Cancel forces real context cancellation: the cancel function
	// registered on ctx via Register/WithCancel is invoked and Hit
	// returns the context's error (context.Canceled if none is
	// registered).
	Cancel bool
	// Prob is the per-hit firing probability; 0 means always fire.
	// Draws come from the plan's seeded PRNG, so a given seed replays
	// identically.
	Prob float64
	// After skips the first After matching hits before the rule may
	// fire.
	After int
	// Count caps how many times the rule fires; 0 means no cap.
	Count int
}

// armedRule is a Rule plus its firing state.
type armedRule struct {
	Rule
	seen  int
	fired int
}

// plan is one armed fault schedule.
type plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*armedRule
	hits  map[Point]int64
	fired map[Point]int64
}

// active is the armed plan; nil means injection is disabled and Hit
// is free.
var active atomic.Pointer[plan]

// Enable arms a plan with the given rules, replacing any previous
// plan. seed drives every probabilistic decision, so a chaos run is
// replayed by re-enabling with the same seed and rules.
func Enable(seed uint64, rules ...Rule) {
	p := &plan{
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		hits:  map[Point]int64{},
		fired: map[Point]int64{},
	}
	for i := range rules {
		p.rules = append(p.rules, &armedRule{Rule: rules[i]})
	}
	active.Store(p)
}

// Disable disarms injection; Hit returns to its zero-cost path.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is armed.
func Enabled() bool { return active.Load() != nil }

// Stats is a snapshot of per-point activity under the current plan.
type Stats struct {
	Hits  map[Point]int64 // Hit calls per point
	Fired map[Point]int64 // faults actually applied per point
}

// Snapshot copies the current plan's counters (empty maps when
// disabled).
func Snapshot() Stats {
	s := Stats{Hits: map[Point]int64{}, Fired: map[Point]int64{}}
	p := active.Load()
	if p == nil {
		return s
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range p.hits {
		s.Hits[k] = v
	}
	for k, v := range p.fired {
		s.Fired[k] = v
	}
	return s
}

// cancelKey indexes the registered cancel function in a context's
// value chain.
type cancelKey struct{}

// Register attaches cancel to ctx so a Cancel-mode fault at any point
// below can sever the context for real (not just pretend with a
// returned error). Returns ctx unchanged when injection is disabled.
func Register(ctx context.Context, cancel context.CancelFunc) context.Context {
	if active.Load() == nil {
		return ctx
	}
	return context.WithValue(ctx, cancelKey{}, cancel)
}

// WithCancel derives a cancellable child of ctx with its cancel
// pre-registered — the one-liner for call sites that have no cancel
// of their own to offer. When injection is disabled it returns ctx
// untouched and a no-op cancel.
func WithCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	if active.Load() == nil {
		return ctx, func() {}
	}
	cctx, cancel := context.WithCancel(ctx)
	return Register(cctx, cancel), cancel
}

// Hit is the injection hook: each named point calls it once per pass.
// With no plan armed it costs one atomic load. With a plan armed it
// applies the first rule for pt that elects to fire and returns that
// rule's error (nil for pure-latency rules).
func Hit(ctx context.Context, pt Point) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(ctx, pt)
}

func (p *plan) hit(ctx context.Context, pt Point) error {
	p.mu.Lock()
	p.hits[pt]++
	var r *armedRule
	for _, cand := range p.rules {
		if cand.Point != pt {
			continue
		}
		cand.seen++
		if cand.seen <= cand.After {
			continue
		}
		if cand.Count > 0 && cand.fired >= cand.Count {
			continue
		}
		if cand.Prob > 0 && cand.Prob < 1 && p.rng.Float64() >= cand.Prob {
			continue
		}
		cand.fired++
		p.fired[pt]++
		r = cand
		break
	}
	p.mu.Unlock()
	if r == nil {
		return nil
	}
	// Apply outside the lock: a latency fault must not serialize every
	// other injection point behind its sleep.
	if r.Latency > 0 {
		t := time.NewTimer(r.Latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if r.Cancel {
		if cancel, ok := ctx.Value(cancelKey{}).(context.CancelFunc); ok {
			cancel()
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return context.Canceled
	}
	return r.Err
}
