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
// after 30k warmup, 4096-instruction blocks), so a client can say just
// {"bench":"mcf"}.
//
// Two specs that normalize identically share one session: the stream
// is simulated once, and every subsequent query — from any client —
// reads the session's memo or replays its block log. This is the
// paper's efficiency argument operationalized: one simulation, then
// many graph evaluations.
type SessionSpec struct {
	Bench          string `json:"bench"`
	Seed           uint64 `json:"seed,omitempty"`
	TraceLen       int    `json:"trace_len,omitempty"`
	Warmup         int    `json:"warmup,omitempty"`
	DL1Latency     int    `json:"dl1_latency,omitempty"`
	Window         int    `json:"window,omitempty"`
	WakeupExtra    int    `json:"wakeup_extra,omitempty"`
	BranchRecovery int    `json:"branch_recovery,omitempty"`
	// WindowInsts is the block size of the session's windowed passes
	// (default 4096): the trace streams through ring-storage simulation
	// in WindowInsts-instruction blocks, so peak memory is bounded by
	// the block and the machine's horizon instead of the trace length.
	// The build pass folds the base and the idealizations the query
	// that opens the session reads; a later query needing any other
	// idealization — a wider union, an interior sensitivity α — folds
	// the stream once more for all of its missing ones. Every answer
	// is bit-identical to a whole-graph walk.
	WindowInsts int `json:"window_insts,omitempty"`
}

// defaultWindowInsts is the block size a spec without window_insts
// gets: the long-trace study's, and the ladder's.
const defaultWindowInsts = 4096

// Session spec bounds, shared by normalize and the snapshot decoder,
// so that every session the engine builds is one its snapshots
// restore. maxSpecInsts bounds trace_len, warmup, window_insts and
// the stream warmup + trace_len they make; window is capped at that
// stream's length. maxGraphInsts bounds the trace_len of a session
// whose passes hold a horizon of the whole stream (a machine outside
// the carry argument, depgraph.Config.Horizon) and of a slack query,
// which simulates a whole graph. maxSpecLatency bounds dl1_latency,
// wakeup_extra and branch_recovery, in cycles: the simulator's
// functional-unit schedule (fu.Sched) keeps a per-cycle ring spanning
// its booking horizon, which grows with the latencies (one
// 20k-instruction mcf pass allocates 1.1 MiB at a dl1_latency of 2 and
// 18 MiB at 65,536, 85% of it growing that ring), so an unbounded
// latency could exhaust memory. The paper's machines use at most 15
// cycles.
const (
	maxSpecInsts   int64 = 1 << 31
	maxGraphInsts  int64 = 1 << 24
	maxSpecLatency int64 = 1 << 10
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
	if s.WindowInsts == 0 {
		s.WindowInsts = defaultWindowInsts
	}
	if s.TraceLen < 1 || s.Warmup < 0 {
		return s, errValidation("engine: bad trace length %d / warmup %d", s.TraceLen, s.Warmup)
	}
	if s.DL1Latency < 0 || s.Window < 1 || s.WakeupExtra < 0 || s.BranchRecovery < 0 {
		return s, errValidation("engine: bad machine parameters in %+v", s)
	}
	if int64(s.DL1Latency) > maxSpecLatency || int64(s.WakeupExtra) > maxSpecLatency || int64(s.BranchRecovery) > maxSpecLatency {
		return s, errValidation("engine: dl1_latency %d, wakeup_extra %d or branch_recovery %d exceeds %d cycles",
			s.DL1Latency, s.WakeupExtra, s.BranchRecovery, maxSpecLatency)
	}
	if s.WindowInsts < 1 {
		return s, errValidation("engine: bad window_insts %d", s.WindowInsts)
	}
	stream := int64(s.Warmup) + int64(s.TraceLen)
	if int64(s.TraceLen) > maxSpecInsts || int64(s.Warmup) > maxSpecInsts || stream > maxSpecInsts {
		return s, errValidation("engine: trace_len %d + warmup %d exceeds %d instructions", s.TraceLen, s.Warmup, maxSpecInsts)
	}
	if int64(s.WindowInsts) > maxSpecInsts {
		return s, errValidation("engine: window_insts %d exceeds %d", s.WindowInsts, maxSpecInsts)
	}
	s.Window = int(min(int64(s.Window), stream))
	if cfg := s.machine(); cfg.Graph.ValidateWindowed() != nil && int64(s.TraceLen) > maxGraphInsts {
		return s, errValidation("engine: trace_len %d exceeds %d for wakeup_extra %d, whose passes hold the whole stream",
			s.TraceLen, maxGraphInsts, s.WakeupExtra)
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

// session is one built microexecution: its normalized spec, an
// analyzer whose memo holds the idealizations folded so far (from the
// build, the base and what its first query read), and the shape of its
// build pass. It holds no trace and no graph: a memo miss folds the
// stream once more (fold), replaying the session's block log while the
// engine holds one.
type session struct {
	key      string
	spec     SessionSpec // normalized
	analyzer *cost.Analyzer
	built    time.Duration // wall time of the cold build

	// The build pass's simulated cycles, insts folded, blocks emitted
	// and peak analysis bytes; set before the session is published (or
	// by a restore), read-only after.
	cycles    int64
	insts     int
	windows   int
	peakBytes int64

	// met receives every pass's counters and logs holds the session's
	// block log; both nil outside an engine.
	met  *metrics
	logs *logStore
}

// build constructs the session of q.Session: its build pass folds what
// q reads — the base and the idealizations the opening query reads —
// through the session's own cost.Eval (fold) into the analyzer's memo,
// α-scaled entries included, and records the pass's block log into
// logs for the session's later misses to replay. No trace, graph or
// node times are retained — peak memory during the build and the
// session's resident size are bounded by the block size and the
// machine's horizon, which is what lets a session cover tens of
// millions of instructions. ctx cancels the pass. met (nil in
// benchmarks) receives the build histogram and the pass counters; logs
// (nil: records nothing) holds the log.
func build(ctx context.Context, q Query, met *metrics, logs *logStore) (*session, error) {
	key, err := q.Session.Key()
	if err != nil {
		return nil, err
	}
	spec, _ := q.Session.normalize()
	start := time.Now()
	s := newSession(&session{key: key, spec: spec, met: met, logs: logs}, nil)
	if err := s.analyzer.PrewarmIdealsCtx(ctx, q.reads()); err != nil {
		return nil, err
	}
	s.built = time.Since(start)
	if met != nil {
		met.sessionBuild.Record(s.built)
		met.windowedBuilds.Add(1)
	}
	return s, nil
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

// newSession completes s — identity and metrics set, and for a restore
// the cycles and run shape too — with an analyzer that starts from the
// subset times folded so far (flags → cycles; known[0] is the base;
// nil for a build) and folds the stream for every batch of memo
// misses, binary or α-scaled alike. Shared by the cold build and
// snapshot restore.
func newSession(s *session, known map[depgraph.Flags]int64) *session {
	s.analyzer = cost.NewFromEval(s.fold, known)
	return s
}

// foldBudget bounds the node-time rings one pass holds, in bytes: 3 ×
// 8 bytes per ring row per lane (depgraph.Config.FoldRows). The
// default machine's rows are 2,048, so its 256-lane pass (12.5 MB)
// stays one pass; a machine whose horizon is the whole stream holds a
// row per instruction, and its batch splits over several passes.
const foldBudget = 16 << 20

// lanesPerPass is how many lanes one pass of the session folds within
// foldBudget, leaving room for the base lane a pass adds for its
// self-check; at least one.
func (s SessionSpec) lanesPerPass() int {
	cfg := s.machine().Graph
	lane := 3 * 8 * int64(cfg.FoldRows(s.TraceLen))
	return int(max(1, foldBudget/lane-1))
}

// fold is the session's cost.Eval: the given idealizations, folded
// over the session's stream in as few passes as foldBudget allows. The
// build's fold is the first; every later one serves a batch of memo
// misses.
func (s *session) fold(ctx context.Context, ids []depgraph.Ideal) ([]int64, error) {
	building := s.cycles == 0
	per := s.spec.lanesPerPass()
	times := make([]int64, 0, len(ids))
	for lo := 0; lo < len(ids); lo += per {
		t, err := s.pass(ctx, ids[lo:min(lo+per, len(ids))], building)
		if err != nil {
			return nil, err
		}
		times = append(times, t...)
	}
	return times, nil
}

// pass runs one windowed pass over the session's stream for ids. It
// replays the session's block log while the engine holds one;
// otherwise it simulates and records a new log — the build, a restored
// session's first miss, a session whose log was evicted alike. The
// first pass sets the session's cycles and run shape, before the
// session is published, so no reader races it; every later one must
// reproduce those cycles (a replay's base lane is also checked against
// the cycles its recording simulated), and a pass that disagrees
// answers nothing.
func (s *session) pass(ctx context.Context, ids []depgraph.Ideal, building bool) ([]int64, error) {
	what := "simulated"
	var wres *window.Result
	var err error
	if log := s.logs.acquire(s.key); log != nil {
		what = "replayed"
		wres, err = window.Replay(ctx, log, ids)
	} else {
		var rec *window.Log // nil outside an engine: record nothing
		if s.logs != nil {
			rec = new(window.Log)
		}
		if wres, err = window.Record(ctx, s.spec.windowRequest(), ids, rec); err == nil {
			s.logs.put(s.key, rec)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("engine: %s pass of %s: %w", what, s.spec.Bench, err)
	}
	if s.cycles == 0 {
		s.cycles = wres.Cycles
		s.insts, s.windows, s.peakBytes = int(wres.Insts), wres.Windows, wres.PeakBytes
	} else if wres.Cycles != s.cycles {
		return nil, fmt.Errorf("engine: %s pass of %s ran %d cycles, session has %d",
			what, s.spec.Bench, wres.Cycles, s.cycles)
	}
	if m := s.met; m != nil {
		m.recordBatch(len(ids))
		m.coldGenNS.Add(wres.Gen)
		m.coldGenStallNS.Add(wres.GenStall)
		m.coldSimNS.Add(wres.Sim)
		m.coldSimStallNS.Add(wres.SimStall)
		if building {
			m.windowedBuildLanes.Add(int64(len(ids)))
		} else {
			m.windowedRefolds.Add(1)
			m.windowedRefoldLanes.Add(int64(len(ids)))
			if what == "replayed" {
				m.windowedReplays.Add(1)
			}
		}
	}
	return wres.Times, nil
}

// slacks simulates the session's stream into a pooled whole graph,
// walks it for every instruction's slack and releases it: slack needs
// per-instruction node times over the whole graph, which no session
// keeps. It is the simulation icostbench's reference runs, and the
// engine's result cache keeps its answer. Query bounds the stream by
// maxGraphInsts first.
func (s *session) slacks(ctx context.Context) ([]int64, error) {
	sp := s.spec
	w, err := workload.Cached(sp.Bench, sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("engine: generating %s: %w", sp.Bench, err)
	}
	// The derived cancel stops the producer goroutine on every error
	// return below; on success the stream is fully drained and the
	// producer already gone.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st, err := w.ExecuteRecycled(ctx, sp.Warmup+sp.TraceLen, sp.Seed+1, 0)
	if err != nil {
		return nil, fmt.Errorf("engine: generating %s: %w", sp.Bench, err)
	}
	var tm ooo.StreamTiming
	res, err := ooo.SimulateStream(ctx, st, sp.machine(), ooo.Options{KeepGraph: true, Warmup: sp.Warmup, Timing: &tm})
	if err != nil {
		return nil, fmt.Errorf("engine: simulating %s: %w", sp.Bench, err)
	}
	depgraph.ReleaseTimes(res.Times)
	defer res.Graph.Release()
	if m := s.met; m != nil {
		m.coldGenNS.Add(st.GenNS())
		m.coldGenStallNS.Add(st.StallNS())
		m.coldSimNS.Add(tm.SimNS)
		m.coldSimStallNS.Add(tm.WaitNS)
	}
	if res.Cycles != s.cycles {
		return nil, fmt.Errorf("engine: slack simulation of %s ran %d cycles, session has %d", sp.Bench, res.Cycles, s.cycles)
	}
	return res.Graph.SlacksCtx(ctx, depgraph.Ideal{})
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
// entries still being built. Returns the evicted keys.
func (st *sessionStore) evict() []string {
	var out []string
	for st.ll.Len() > st.max {
		el := st.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*sessionEntry)
		select {
		case <-e.ready:
		default:
			return out // oldest entry still building; stop evicting
		}
		st.ll.Remove(el)
		delete(st.items, e.key)
		out = append(out, e.key)
	}
	return out
}

// drain empties the store, at Close.
func (st *sessionStore) drain() {
	st.items = map[string]*list.Element{}
	st.ll.Init()
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
