package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"time"

	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/trace"
	"icost/internal/window"
	"icost/internal/workload"
)

// SessionSpec identifies one built microexecution: a benchmark,
// generation seed, trace length and the machine parameters that vary
// across the paper's experiments. Zero-valued fields take the
// defaults of cmd/icost (Table 6 machine, 30k measured instructions
// after 30k warmup), so a client can say just {"bench":"mcf"}.
//
// Two specs that normalize identically share one session: the trace,
// simulation and dependence graph are built once and every subsequent
// query — from any client — reuses them. This is the paper's
// efficiency argument operationalized: graph idealization is
// O(|graph|) per cost query only if the graph survives between
// queries.
type SessionSpec struct {
	Bench          string `json:"bench"`
	Seed           uint64 `json:"seed,omitempty"`
	TraceLen       int    `json:"trace_len,omitempty"`
	Warmup         int    `json:"warmup,omitempty"`
	DL1Latency     int    `json:"dl1_latency,omitempty"`
	Window         int    `json:"window,omitempty"`
	WakeupExtra    int    `json:"wakeup_extra,omitempty"`
	BranchRecovery int    `json:"branch_recovery,omitempty"`
	// WindowInsts, when nonzero, builds the session through the
	// windowed long-trace pipeline: the trace streams through
	// ring-storage simulation in WindowInsts-instruction blocks, so
	// peak memory is bounded by the window budget instead of the trace
	// length. The build pass folds the base, every single category and
	// every pair (37 idealizations); a later query needing any other
	// idealization — a wider union, an interior sensitivity α —
	// re-folds the stream once for all of its missing ones.
	// Every cost/icost/breakdown query answers with bit-identical
	// results; only the slack query (which needs per-instruction node
	// times) is unavailable.
	WindowInsts int `json:"window_insts,omitempty"`
}

// normalize fills defaults and validates the spec.
func (s SessionSpec) normalize() (SessionSpec, error) {
	if s.Bench == "" {
		return s, errValidation("engine: session needs a benchmark name")
	}
	known := false
	for _, n := range workload.Names() {
		if n == s.Bench {
			known = true
			break
		}
	}
	if !known {
		return s, errValidation("engine: unknown benchmark %q (have %v)", s.Bench, workload.Names())
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.TraceLen == 0 {
		s.TraceLen = 30000
	}
	if s.Warmup == 0 {
		s.Warmup = 30000
	}
	if s.DL1Latency == 0 {
		s.DL1Latency = 2
	}
	if s.Window == 0 {
		s.Window = 64
	}
	if s.BranchRecovery == 0 {
		s.BranchRecovery = 8
	}
	if s.TraceLen < 1 || s.Warmup < 0 {
		return s, errValidation("engine: bad trace length %d / warmup %d", s.TraceLen, s.Warmup)
	}
	if s.DL1Latency < 0 || s.Window < 1 || s.WakeupExtra < 0 || s.BranchRecovery < 0 {
		return s, errValidation("engine: bad machine parameters in %+v", s)
	}
	if s.WindowInsts < 0 {
		return s, errValidation("engine: bad window_insts %d", s.WindowInsts)
	}
	if s.WindowInsts > 0 {
		cfg := s.machine(0)
		if err := cfg.Graph.ValidateWindowed(); err != nil {
			return s, errValidation("engine: %v", err)
		}
	}
	return s, nil
}

// Key returns the content hash identifying the session: SHA-256 over
// the canonical rendering of the normalized spec. Specs that differ
// only in defaulted fields hash identically.
func (s SessionSpec) Key() (string, error) {
	n, err := s.normalize()
	if err != nil {
		return "", err
	}
	canon := fmt.Sprintf("bench=%s seed=%d n=%d warmup=%d dl1=%d win=%d wake=%d rec=%d wininsts=%d",
		n.Bench, n.Seed, n.TraceLen, n.Warmup,
		n.DL1Latency, n.Window, n.WakeupExtra, n.BranchRecovery, n.WindowInsts)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:8]), nil
}

// machine resolves the simulated machine. lanes is the engine-wide
// batch lane width (Config.Lanes): a throughput knob, deliberately
// outside the spec and the session key.
func (s SessionSpec) machine(lanes int) ooo.Config {
	cfg := ooo.DefaultConfig().
		WithDL1Latency(s.DL1Latency).
		WithWindow(s.Window).
		WithWakeupExtra(s.WakeupExtra).
		WithBranchRecovery(s.BranchRecovery)
	cfg.Graph.Lanes = lanes
	return cfg
}

// session is one built artifact set. A whole-graph session holds
// trace + simulation result (graph) + graph-backed analyzer; a
// windowed session holds no graph at all — just an analyzer whose
// memo holds the idealizations folded so far and whose misses re-fold
// the stream, plus the windowed run's shape for observability.
type session struct {
	key      string
	spec     SessionSpec // normalized
	trace    *trace.Trace
	result   *ooo.Result
	analyzer *cost.Analyzer
	built    time.Duration // wall time of the cold build
	pooled   bool          // artifacts are pool-backed; release returns them

	// Windowed-session state (spec.WindowInsts > 0): insts folded,
	// blocks emitted, and peak analysis bytes, from the build's
	// window.Analyze pass; the lane width and engine metrics every
	// re-fold runs with (met is nil outside an engine).
	windowed  bool
	insts     int
	windows   int
	peakBytes int64
	lanes     int
	met       *metrics
}

// instCount is the session's timed instruction count, independent of
// whether a graph is resident.
func (s *session) instCount() int {
	if s.windowed {
		return s.insts
	}
	return s.result.Graph.Len()
}

// release returns the session's pool-backed artifacts — trace backing
// array, graph arena, node-time scratch — so the next cold build
// reuses them instead of reallocating. Only called once no reader can
// still hold the session (engine Close, after the workers exit);
// evicted sessions are never released, since an in-flight query may
// still be reading them, and simply fall to the garbage collector.
func (s *session) release() {
	if !s.pooled {
		return
	}
	s.pooled = false
	if s.result != nil {
		if s.result.Graph != nil {
			s.result.Graph.Release()
			s.result.Graph = nil
		}
		if s.result.Times != nil {
			depgraph.ReleaseTimes(s.result.Times)
			s.result.Times = nil
		}
	}
	if s.trace != nil {
		trace.ReleaseInsts(s.trace.Insts)
		s.trace = nil
	}
}

// build constructs a session through the streaming cold path: the
// workload interpreter produces trace segments on a bounded channel
// while the simulator consumes them, overlapping generation,
// simulation and graph-edge materialization; the trace, graph and
// node times all land in pooled storage. ctx cancels both pipeline
// stages. met (nil in benchmarks) receives the build histogram and
// per-stage time counters.
func build(ctx context.Context, spec SessionSpec, lanes int, met *metrics) (*session, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, err
	}
	spec, _ = spec.normalize()
	if spec.WindowInsts > 0 {
		return buildWindowed(ctx, spec, lanes, met, key)
	}
	start := time.Now()
	w, err := workload.Cached(spec.Bench, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("engine: generating %s: %w", spec.Bench, err)
	}
	// The derived cancel stops the producer goroutine on every error
	// return below; on success the stream is fully drained and the
	// producer already gone.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st, err := w.ExecuteStream(ctx, spec.Warmup+spec.TraceLen, spec.Seed+1, 0)
	if err != nil {
		return nil, fmt.Errorf("engine: generating %s: %w", spec.Bench, err)
	}
	var tm ooo.StreamTiming
	res, err := ooo.SimulateStream(ctx, st, spec.machine(lanes), ooo.Options{
		KeepGraph: true, Warmup: spec.Warmup, Timing: &tm,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: simulating %s: %w", spec.Bench, err)
	}
	built := time.Since(start)
	if met != nil {
		met.sessionBuild.record(built)
		met.coldGenNS.Add(st.GenNS())
		met.coldGenStallNS.Add(st.StallNS())
		met.coldSimNS.Add(tm.SimNS)
		met.coldSimStallNS.Add(tm.WaitNS)
	}
	return &session{
		key:      key,
		spec:     spec,
		trace:    st.Trace(),
		result:   res,
		analyzer: cost.New(res.Graph),
		built:    built,
		pooled:   true,
	}, nil
}

// foldLattice returns the subsets a windowed build folds, in flag
// order: the base, every single category and every pair — the
// second-order lattice that breakdowns (§2.3), pairwise icosts (§2.2),
// matrices and single costs read. 1 + 8 + 28 = 37 lanes.
func foldLattice() []depgraph.Flags {
	var lanes []depgraph.Flags
	for f := depgraph.Flags(0); f <= depgraph.AllFlags; f++ {
		if bits.OnesCount(uint(f)) <= 2 {
			lanes = append(lanes, f)
		}
	}
	return lanes
}

// windowRequest describes one windowed pass over the session's
// stream.
func (s SessionSpec) windowRequest(lanes int) window.Request {
	return window.Request{
		Bench:       s.Bench,
		Seed:        s.Seed,
		TraceLen:    s.TraceLen,
		Warmup:      s.Warmup,
		WindowInsts: s.WindowInsts,
		Sim:         s.machine(lanes),
	}
}

// buildWindowed constructs a windowed session: one streaming pass of
// ring-storage simulation folds the execution time of the lattice
// (foldLattice), which seeds the analyzer's memo. No trace,
// graph or node times are retained — peak memory during the build and
// the session's resident size are both bounded by the window budget,
// which is what lets a session cover tens of millions of
// instructions.
func buildWindowed(ctx context.Context, spec SessionSpec, lanes int, met *metrics, key string) (*session, error) {
	start := time.Now()
	lattice := foldLattice()
	wres, err := window.Analyze(ctx, spec.windowRequest(lanes), lattice)
	if err != nil {
		return nil, fmt.Errorf("engine: windowed build of %s: %w", spec.Bench, err)
	}
	built := time.Since(start)
	if met != nil {
		met.sessionBuild.record(built)
		met.windowedBuilds.Add(1)
	}
	known := make(map[depgraph.Flags]int64, len(lattice))
	for i, f := range lattice {
		known[f] = wres.Times[i]
	}
	return newWindowedSession(&session{
		key:       key,
		spec:      spec,
		result:    &ooo.Result{Cycles: wres.Cycles, Stats: wres.Stats},
		built:     built,
		insts:     int(wres.Insts),
		windows:   wres.Windows,
		peakBytes: wres.PeakBytes,
		lanes:     lanes,
		met:       met,
	}, known), nil
}

// newWindowedSession completes s — identity, result, run shape, lane
// width and metrics already set — as a windowed session: its analyzer
// starts from the subset times folded so far (flags → cycles; known[0]
// is the base) and re-folds the stream for every batch of memo misses,
// binary or α-scaled alike. Shared by the cold build and snapshot
// restore.
func newWindowedSession(s *session, known map[depgraph.Flags]int64) *session {
	s.windowed = true
	s.analyzer = cost.NewFromEval(s.refold, known)
	return s
}

// refold is a windowed session's cost.Eval: it folds the session's
// stream once more, for the given idealizations only. The replay is
// deterministic, so its simulated cycles must equal the session's; a
// pass that disagrees answers nothing.
func (s *session) refold(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
	wres, err := window.AnalyzeIdeals(ctx, s.spec.windowRequest(s.lanes), ids)
	if err != nil {
		return nil, fmt.Errorf("engine: windowed re-fold of %s: %w", s.spec.Bench, err)
	}
	if wres.Cycles != s.result.Cycles {
		return nil, fmt.Errorf("engine: windowed re-fold of %s simulated %d cycles, session has %d",
			s.spec.Bench, wres.Cycles, s.result.Cycles)
	}
	if s.met != nil {
		s.met.windowedRefolds.Add(1)
		s.met.windowedRefoldLanes.Add(int64(len(ids)))
	}
	return wres.Times, nil
}

// sessionStore is an LRU-bounded map of built sessions with
// single-flight building: concurrent queries against a cold session
// trigger exactly one build, and everyone waits on it.
type sessionStore struct {
	max   int
	items map[string]*list.Element // -> *sessionEntry
	ll    *list.List               // front = most recently used
}

type sessionEntry struct {
	key   string
	ready chan struct{} // closed when build finishes
	sess  *session      // nil until ready; nil after ready on error
	err   error
	// gen is the engine-wide install generation stamped when the build
	// (or snapshot restore) completes; 0 while building or failed.
	// Written under the engine's store lock before ready observers can
	// see the entry complete, read under the same lock.
	gen uint64
	// expires, when set on a failed entry, is how long the failure is
	// served as a negative result before a new query may rebuild.
	// Written by the builder before ready is closed, read under the
	// store lock.
	expires time.Time
}

func newSessionStore(max int) *sessionStore {
	return &sessionStore{max: max, items: map[string]*list.Element{}, ll: list.New()}
}

// entry returns the store entry for key, creating it (and electing
// the caller as builder) if absent. A failed entry whose negative TTL
// has lapsed counts as absent: it is replaced and rebuilt. The
// boolean is true when the caller must perform the build and complete
// the entry.
func (st *sessionStore) entry(key string, now time.Time) (*sessionEntry, bool) {
	if el, ok := st.items[key]; ok {
		e := el.Value.(*sessionEntry)
		if !e.expired(now) {
			st.ll.MoveToFront(el)
			return e, false
		}
		st.ll.Remove(el)
		delete(st.items, key)
	}
	e := &sessionEntry{key: key, ready: make(chan struct{})}
	st.items[key] = st.ll.PushFront(e)
	return e, true
}

// expired reports whether e is a completed failure whose negative TTL
// has lapsed. In-progress builds and successes never expire here (the
// LRU handles successes).
func (e *sessionEntry) expired(now time.Time) bool {
	select {
	case <-e.ready:
		return e.err != nil && now.After(e.expires)
	default:
		return false
	}
}

// drop removes a failed entry so a later query can retry the build.
func (st *sessionStore) drop(key string) {
	if el, ok := st.items[key]; ok {
		st.ll.Remove(el)
		delete(st.items, key)
	}
}

// evict trims the store to max entries, oldest first, never evicting
// entries still being built. Returns how many sessions were evicted.
func (st *sessionStore) evict() int {
	n := 0
	for st.ll.Len() > st.max {
		el := st.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*sessionEntry)
		select {
		case <-e.ready:
		default:
			return n // oldest entry still building; stop evicting
		}
		st.ll.Remove(el)
		delete(st.items, e.key)
		n++
	}
	return n
}

// drain empties the store and returns every completed session, for
// Close-time release of their pooled artifacts. Entries still being
// built (unreachable in practice — drain runs after the workers exit)
// are discarded without a session.
func (st *sessionStore) drain() []*session {
	var out []*session
	for el := st.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*sessionEntry)
		select {
		case <-e.ready:
			if e.sess != nil {
				out = append(out, e.sess)
			}
		default:
		}
	}
	st.items = map[string]*list.Element{}
	st.ll.Init()
	return out
}

// sessions returns every completed session, most recently used first,
// without disturbing the store (snapshot saves read it in place).
func (st *sessionStore) sessions() []*session {
	var out []*session
	for el := st.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*sessionEntry)
		select {
		case <-e.ready:
			if e.sess != nil {
				out = append(out, e.sess)
			}
		default:
		}
	}
	return out
}

func (st *sessionStore) len() int { return st.ll.Len() }
