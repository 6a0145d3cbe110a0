package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/ooo"
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
	// length. The build pass folds the base and the idealizations the
	// query that opens the session reads; a later query needing any
	// other idealization — a wider union, an interior sensitivity α —
	// re-folds the stream once for all of its missing ones.
	// Every cost/icost/breakdown query answers with bit-identical
	// results; only the slack query (which needs per-instruction node
	// times) is unavailable.
	WindowInsts int `json:"window_insts,omitempty"`
}

// Session spec bounds, shared by normalize and the snapshot decoder,
// so that every session the engine builds is one its snapshots
// restore. maxSpecInsts bounds trace_len, warmup, window_insts and
// the stream warmup + trace_len they make; window is capped at that
// stream's length. maxGraphInsts bounds a whole-graph session's
// trace_len, which sizes its resident graph.
const (
	maxSpecInsts  int64 = 1 << 31
	maxGraphInsts int64 = 1 << 24
)

// normalize fills defaults and validates the spec. It resolves the
// re-order window to at most the stream's length, warmup included: a
// window that long never fills, and no CD edge reaches past the
// stream start on any lane, so every longer window simulates and
// analyzes identically. The session key, the snapshot and machine()
// all see the resolved value, and one taken from a request cannot
// size rings or overflow Window × WindowIdealFactor.
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
	stream := int64(s.Warmup) + int64(s.TraceLen)
	if int64(s.TraceLen) > maxSpecInsts || int64(s.Warmup) > maxSpecInsts || stream > maxSpecInsts {
		return s, errValidation("engine: trace_len %d + warmup %d exceeds %d instructions", s.TraceLen, s.Warmup, maxSpecInsts)
	}
	if int64(s.WindowInsts) > maxSpecInsts {
		return s, errValidation("engine: window_insts %d exceeds %d", s.WindowInsts, maxSpecInsts)
	}
	if s.WindowInsts == 0 && int64(s.TraceLen) > maxGraphInsts {
		return s, errValidation("engine: trace_len %d exceeds %d for a whole-graph session; set window_insts to stream it",
			s.TraceLen, maxGraphInsts)
	}
	s.Window = int(min(int64(s.Window), stream))
	if s.WindowInsts > 0 {
		cfg := s.machine()
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

// machine resolves the simulated machine of a normalized spec.
func (s SessionSpec) machine() ooo.Config {
	return ooo.DefaultConfig().
		WithDL1Latency(s.DL1Latency).
		WithWindow(s.Window).
		WithWakeupExtra(s.WakeupExtra).
		WithBranchRecovery(s.BranchRecovery)
}

// session is one built artifact set. A whole-graph session holds the
// simulation result (graph) and a graph-backed analyzer — neither the
// trace nor the simulation's node times, which no query reads; a
// windowed session holds no graph at all — just an analyzer whose
// memo holds the idealizations folded so far (from the build, the
// base and what its first query read) and whose misses re-fold the
// stream, plus the windowed run's shape for observability.
type session struct {
	key      string
	spec     SessionSpec // normalized
	result   *ooo.Result
	analyzer *cost.Analyzer
	built    time.Duration // wall time of the cold build
	pooled   bool          // artifacts are pool-backed; release returns them

	// Windowed-session state (spec.WindowInsts > 0): insts folded,
	// blocks emitted, and peak analysis bytes, from the build pass; the
	// engine metrics every pass reports to (nil outside an engine).
	windowed  bool
	insts     int
	windows   int
	peakBytes int64
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

// release returns the session's pool-backed graph arena so the next
// cold build reuses it instead of reallocating. Only called once no
// reader can still hold the session (engine Close, after the workers
// exit); evicted sessions are never released, since an in-flight query
// may still be reading them, and simply fall to the garbage collector.
func (s *session) release() {
	if !s.pooled {
		return
	}
	s.pooled = false
	if s.result != nil && s.result.Graph != nil {
		s.result.Graph.Release()
		s.result.Graph = nil
	}
}

// build constructs the session of q.Session through the streaming
// cold path: the workload interpreter produces trace segments into a
// small ring of recycled buffers while the simulator consumes them,
// overlapping generation, simulation and graph-edge materialization.
// The graph lands in pooled storage; the node times go back to their
// pool as soon as the simulation returns. A windowed session folds
// what q reads instead (buildWindowed); a whole-graph build ignores
// the op. ctx cancels both pipeline stages. met (nil in benchmarks)
// receives the build histogram and per-stage time counters.
func build(ctx context.Context, q Query, met *metrics) (*session, error) {
	key, err := q.Session.Key()
	if err != nil {
		return nil, err
	}
	spec, _ := q.Session.normalize()
	if spec.WindowInsts > 0 {
		return buildWindowed(ctx, spec, met, key, q.reads())
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
	st, err := w.ExecuteRecycled(ctx, spec.Warmup+spec.TraceLen, spec.Seed+1, 0)
	if err != nil {
		return nil, fmt.Errorf("engine: generating %s: %w", spec.Bench, err)
	}
	var tm ooo.StreamTiming
	res, err := ooo.SimulateStream(ctx, st, spec.machine(), ooo.Options{
		KeepGraph: true, Warmup: spec.Warmup, Timing: &tm,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: simulating %s: %w", spec.Bench, err)
	}
	depgraph.ReleaseTimes(res.Times)
	res.Times = nil
	built := time.Since(start)
	if met != nil {
		met.sessionBuild.Record(built)
		met.coldGenNS.Add(st.GenNS())
		met.coldGenStallNS.Add(st.StallNS())
		met.coldSimNS.Add(tm.SimNS)
		met.coldSimStallNS.Add(tm.WaitNS)
	}
	return &session{
		key:      key,
		spec:     spec,
		result:   res,
		analyzer: cost.New(res.Graph),
		built:    built,
		pooled:   true,
	}, nil
}

// windowRequest describes one windowed pass over the session's
// stream.
func (s SessionSpec) windowRequest() window.Request {
	return window.Request{
		Bench:       s.Bench,
		Seed:        s.Seed,
		TraceLen:    s.TraceLen,
		Warmup:      s.Warmup,
		WindowInsts: s.WindowInsts,
		Sim:         s.machine(),
	}
}

// buildWindowed constructs a windowed session whose build pass folds
// reads — the base and the idealizations the opening query reads —
// through the session's own cost.Eval (fold), the pass every later
// memo miss runs, into the analyzer's memo, α-scaled entries included.
// No trace, graph or node times are retained — peak memory during the
// build and the session's resident size are both bounded by the window
// budget, which is what lets a session cover tens of millions of
// instructions.
func buildWindowed(ctx context.Context, spec SessionSpec, met *metrics, key string, reads []depgraph.Ideal) (*session, error) {
	start := time.Now()
	s := newWindowedSession(&session{key: key, spec: spec, met: met}, nil)
	if err := s.analyzer.PrewarmIdealsCtx(ctx, reads); err != nil {
		return nil, err
	}
	s.built = time.Since(start)
	if met != nil {
		met.sessionBuild.Record(s.built)
		met.windowedBuilds.Add(1)
	}
	return s, nil
}

// newWindowedSession completes s — identity and metrics set, and for
// a restore the result and run shape too — as a windowed session: its
// analyzer starts from the subset times folded so far (flags → cycles;
// known[0] is the base; nil for a build) and re-folds the stream for
// every batch of memo misses, binary or α-scaled alike. Shared by the
// cold build and snapshot restore.
func newWindowedSession(s *session, known map[depgraph.Flags]int64) *session {
	s.windowed = true
	s.analyzer = cost.NewFromEval(s.fold, known)
	return s
}

// fold is a windowed session's cost.Eval: one pass over the session's
// stream that folds the given idealizations only. The first pass is the
// build's: it records the session's cycles and run shape, before the
// session is published, so no reader races it. Every later pass is a
// re-fold, and the replay is deterministic, so it must reproduce those
// cycles; a pass that disagrees answers nothing.
func (s *session) fold(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
	pass := "re-fold"
	if s.result == nil {
		pass = "build"
	}
	wres, err := window.AnalyzeIdeals(ctx, s.spec.windowRequest(), ids)
	if err != nil {
		return nil, fmt.Errorf("engine: windowed %s of %s: %w", pass, s.spec.Bench, err)
	}
	if s.result == nil {
		s.result = &ooo.Result{Cycles: wres.Cycles, Stats: wres.Stats}
		s.insts, s.windows, s.peakBytes = int(wres.Insts), wres.Windows, wres.PeakBytes
		if s.met != nil {
			s.met.windowedBuildLanes.Add(int64(len(ids)))
		}
		return wres.Times, nil
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
