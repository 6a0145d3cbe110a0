// Package engine turns the icost library into a concurrent,
// query-oriented analysis service. The paper's efficiency claim —
// graph idealization answers a cost query in O(|graph|) instead of
// one re-simulation per idealization set — only pays off when many
// queries are answered against one simulation. The engine owns that
// sharing:
//
//   - a session store keeps built sessions (a memoizing analyzer over
//     windowed passes of the session's stream, session.go) keyed by a
//     content hash of (benchmark, seed, machine parameters), so
//     repeated queries never rebuild, and a block-log store
//     (blocklog.go) lets a session's memo misses replay its recorded
//     pass instead of re-simulating;
//   - a fixed worker pool executes cost/icost/breakdown/slack/matrix
//     queries in parallel, with per-query context cancellation
//     threaded into the graph-walk loops;
//   - a bounded job queue applies backpressure: when full, Query
//     returns a typed *QueueFullError with a retry hint instead of
//     growing without bound;
//   - identical concurrent queries are deduplicated (single-flight)
//     and completed results live in a byte-bounded LRU cache;
//   - atomic counters and a latency histogram expose service health
//     (cmd/icostd serves them as /metrics).
//
// cmd/icostd is the HTTP daemon on top; cmd/icost -engine routes the
// CLI through the same code path.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"icost/internal/faultinject"
)

// Config sizes the engine. Zero fields take defaults.
type Config struct {
	// Workers is the number of concurrent query executors (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-unstarted queries
	// (default 4x workers). A full queue rejects with *QueueFullError.
	QueueDepth int
	// CacheBytes bounds the result cache (default 64 MiB).
	CacheBytes int64
	// MaxSessions bounds the session store (default 8 sessions, LRU).
	MaxSessions int
	// RetryAfter is the hint carried by queue-full rejections
	// (default 1s).
	RetryAfter time.Duration
	// QueryTimeout bounds each query's server-side execution (session
	// build plus graph walks), measured from the moment a worker picks
	// the job up and independent of the client's own context — a
	// wedged walk cannot hold a worker forever. Zero disables the
	// deadline.
	QueryTimeout time.Duration
	// BuildRetries is how many times a failed session build is
	// retried before the failure is reported (default 2; negative
	// disables retries). Cancellation is never retried.
	BuildRetries int
	// BuildRetryBackoff is the base delay of the capped exponential
	// backoff between build retries: attempt k waits base<<k, capped
	// at base<<3 (default base 10ms).
	BuildRetryBackoff time.Duration
	// BuildFailTTL is how long a failed build is remembered: until it
	// expires, queries for the same session share the cached failure
	// instead of stampeding into fresh build attempts (default 1s;
	// negative drops failures immediately).
	BuildFailTTL time.Duration
	// Accuracy, when set, is the advertised model-vs-simulator
	// relative-error envelope per knob (the measured bound committed
	// to BENCH_sens.json by internal/refute). It is attached verbatim
	// to sensitivity responses so clients can judge how literally to
	// read a curve; the engine never interprets it.
	Accuracy map[string]float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BuildRetries == 0 {
		c.BuildRetries = 2
	} else if c.BuildRetries < 0 {
		c.BuildRetries = 0
	}
	if c.BuildRetryBackoff <= 0 {
		c.BuildRetryBackoff = 10 * time.Millisecond
	}
	if c.BuildFailTTL == 0 {
		c.BuildFailTTL = time.Second
	} else if c.BuildFailTTL < 0 {
		c.BuildFailTTL = 0
	}
	return c
}

// QueueFullError is the typed backpressure rejection: the job queue
// is at capacity and the client should retry after the hinted delay.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("engine: queue full, retry after %s", e.RetryAfter)
}

// ErrClosed is returned by Query after Close.
var ErrClosed = errors.New("engine: closed")

// Engine is the concurrent analysis service. Create with New, stop
// with Close (drains in-flight queries).
type Engine struct {
	cfg  Config
	jobs chan *job

	submitMu sync.RWMutex // guards closed + sends on jobs
	closed   bool
	workerWG sync.WaitGroup

	storeMu sync.Mutex
	store   *sessionStore
	// gen numbers completed session installs (builds and snapshot
	// restores) process-wide. A session's generation changes exactly
	// when its entry is replaced, so a router can decide whether a
	// replica's shipped copy is still current by comparing generations
	// instead of re-shipping bytes.
	gen atomic.Uint64

	flightMu sync.Mutex
	flight   map[string]*flight

	results *resultCache
	met     metrics
	logs    logStore
	started time.Time

	// onJobStart, when set (tests), runs at the top of every worker
	// job — used to hold workers busy deterministically.
	onJobStart func()
}

// flight is one in-progress computation shared by all concurrent
// identical queries.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
	// jctx is the detached computation context: it inherits the first
	// caller's values but not its cancellation, so a leader that gives
	// up cannot poison followers still waiting on the shared result.
	// cancel fires only when the last waiter leaves (leaveFlight) —
	// the one moment nobody wants the result anymore.
	jctx    context.Context
	cancel  context.CancelFunc
	waiters int // guarded by Engine.flightMu
}

type job struct {
	ctx  context.Context
	q    Query // normalized
	qkey string
	skey string
	fl   *flight
}

// New starts an engine with cfg defaults applied.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		jobs:    make(chan *job, cfg.QueueDepth),
		store:   newSessionStore(cfg.MaxSessions),
		flight:  map[string]*flight{},
		results: newResultCache(cfg.CacheBytes),
		started: time.Now(),
	}
	e.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Close stops accepting queries, lets queued and in-flight queries
// finish, and waits for the workers to exit. It then empties the
// session store.
func (e *Engine) Close() {
	e.submitMu.Lock()
	if e.closed {
		e.submitMu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.submitMu.Unlock()
	e.workerWG.Wait()
	e.storeMu.Lock()
	e.store.drain()
	e.storeMu.Unlock()
}

// Query answers one analysis query, blocking until the result is
// ready, ctx is done, or the queue rejects it. Identical concurrent
// queries share one computation; completed results are served from
// the cache without touching the queue. The returned response is
// owned by the caller (cache hits return a copy).
func (e *Engine) Query(ctx context.Context, q Query) (*Response, error) {
	start := time.Now()
	e.submitMu.RLock()
	closed := e.closed
	e.submitMu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	spec, err := q.Session.normalize()
	if err != nil {
		return nil, err
	}
	skey, _ := spec.Key()
	q.Session = spec
	q, err = q.normalize()
	if err != nil {
		return nil, err
	}
	if q.Op == OpSlack && int64(spec.TraceLen) > maxGraphInsts {
		// Slack simulates the session's stream into a whole graph.
		// Refused before admission, so no build runs.
		return nil, errValidation("engine: slack needs a whole graph; trace_len %d exceeds %d", spec.TraceLen, maxGraphInsts)
	}
	qkey := q.key(skey)

	if resp, ok := e.results.get(qkey); ok {
		e.met.queries.Add(1)
		e.met.cacheHits.Add(1)
		cp := *resp
		cp.Cached = true
		cp.Elapsed = time.Since(start)
		e.met.latency.Record(cp.Elapsed)
		return &cp, nil
	}
	e.met.cacheMisses.Add(1)

	// Single-flight: join an identical in-progress query if one
	// exists, otherwise become the leader and enqueue. The shared
	// computation runs under a context detached from the leader's
	// (values survive, cancellation does not): it is canceled only
	// when every waiter has left, so a leader cancel with live
	// followers lets the computation finish and the followers get the
	// result.
	e.flightMu.Lock()
	fl, leader := e.flight[qkey], false
	if fl == nil {
		dctx, dcancel := context.WithCancel(context.WithoutCancel(ctx))
		fl = &flight{
			done:    make(chan struct{}),
			jctx:    faultinject.Register(dctx, dcancel),
			cancel:  dcancel,
			waiters: 1,
		}
		e.flight[qkey] = fl
		leader = true
	} else {
		fl.waiters++
	}
	e.flightMu.Unlock()
	defer e.leaveFlight(qkey, fl)

	if leader {
		j := &job{ctx: fl.jctx, q: q, qkey: qkey, skey: skey, fl: fl}
		if err := e.submit(j); err != nil {
			e.flightMu.Lock()
			if e.flight[qkey] == fl {
				delete(e.flight, qkey)
			}
			e.flightMu.Unlock()
			fl.err = err   // publish before waking followers
			close(fl.done) // wake followers; they observe fl.err
			if _, full := err.(*QueueFullError); full {
				e.met.queueRejects.Add(1)
			}
			return nil, err
		}
	}

	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if fl.err != nil {
		// All waiters share the computation's outcome: a build
		// failure, an injected fault, or a server-side timeout.
		return nil, fl.err
	}
	e.met.queries.Add(1)
	resp := *fl.resp
	resp.Elapsed = time.Since(start)
	e.met.latency.Record(resp.Elapsed)
	return &resp, nil
}

// leaveFlight signs one waiter off a shared computation. The last
// waiter out cancels the detached job context — with nobody left to
// receive the result the computation is pure waste — and removes the
// flight so a later identical query starts fresh rather than joining
// a doomed one.
func (e *Engine) leaveFlight(qkey string, fl *flight) {
	e.flightMu.Lock()
	fl.waiters--
	last := fl.waiters == 0
	if last && e.flight[qkey] == fl {
		delete(e.flight, qkey)
	}
	e.flightMu.Unlock()
	if last {
		fl.cancel()
	}
}

// Warm builds (or refreshes) a session without running an analysis
// query, so a daemon can preload its working set at startup. Its build
// then folds the base alone, and each later query folds the
// idealizations it reads.
func (e *Engine) Warm(ctx context.Context, spec SessionSpec) (string, error) {
	resp, err := e.Query(ctx, Query{Session: spec, Op: OpExecTime})
	if err != nil {
		return "", err
	}
	return resp.SessionKey, nil
}

// submit enqueues a job, applying backpressure.
func (e *Engine) submit(j *job) error {
	if err := faultinject.Hit(j.ctx, faultinject.EngineAdmit); err != nil {
		return err
	}
	e.submitMu.RLock()
	defer e.submitMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case e.jobs <- j:
		return nil
	default:
		return &QueueFullError{RetryAfter: e.cfg.RetryAfter}
	}
}

func (e *Engine) worker() {
	defer e.workerWG.Done()
	for j := range e.jobs {
		e.met.inFlight.Add(1)
		if e.onJobStart != nil {
			e.onJobStart()
		}
		// The server-side deadline starts when a worker picks the job
		// up, not when it was queued: queue time is governed by
		// backpressure, the deadline by the compute budget.
		ctx := j.ctx
		var tcancel context.CancelFunc
		if e.cfg.QueryTimeout > 0 {
			ctx, tcancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
		}
		resp, err := e.run(ctx, j)
		if tcancel != nil {
			if err != nil && ctx.Err() == context.DeadlineExceeded && j.ctx.Err() == nil {
				e.met.queryTimeouts.Add(1)
			}
			tcancel()
		}
		j.fl.resp, j.fl.err = resp, err
		e.flightMu.Lock()
		if e.flight[j.qkey] == j.fl {
			delete(e.flight, j.qkey)
		}
		e.flightMu.Unlock()
		close(j.fl.done)
		e.met.inFlight.Add(-1)
	}
}

// run executes one job: resolve or build the session, then compute.
func (e *Engine) run(ctx context.Context, j *job) (*Response, error) {
	if err := ctx.Err(); err != nil {
		e.met.canceled.Add(1)
		return nil, err
	}
	// Fault hook on the worker itself: a latency rule here holds this
	// worker for its duration, which is how the shard topology guard
	// pins per-query service time.
	if err := faultinject.Hit(ctx, faultinject.EngineExec); err != nil {
		e.countErr(err)
		return nil, err
	}
	s, err := e.sessionFor(ctx, j.skey, j.q)
	if err != nil {
		e.countErr(err)
		return nil, err
	}
	resp, err := e.execute(ctx, j.q, s)
	if err != nil {
		e.countErr(err)
		return nil, err
	}
	// The result cache is an optimization: a faulted put costs a
	// future recomputation, never the answer in hand.
	if err := faultinject.Hit(ctx, faultinject.EngineCachePut); err == nil {
		e.results.put(j.qkey, resp)
	}
	return resp, nil
}

func (e *Engine) countErr(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		e.met.canceled.Add(1)
	} else {
		e.met.errors.Add(1)
	}
}

// sessionFor returns the built session for key, building it at most
// once per store residency regardless of how many queries race; q, the
// normalized query that elects the builder, tells the build what to
// fold. A failed build is remembered for BuildFailTTL: until it
// expires, queries for the same session share the cached failure
// instead of stampeding into fresh build attempts.
func (e *Engine) sessionFor(ctx context.Context, key string, q Query) (*session, error) {
	e.storeMu.Lock()
	entry, builder := e.store.entry(key, time.Now())
	e.storeMu.Unlock()

	if builder {
		s, err := e.buildWithRetry(ctx, q)
		entry.sess, entry.err = s, err
		e.storeMu.Lock()
		if err != nil {
			e.met.buildFailures.Add(1)
			ttl := e.cfg.BuildFailTTL
			if ttl > 0 && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				entry.expires = time.Now().Add(ttl)
			} else {
				// A canceled build says nothing about the session;
				// drop it so the next query rebuilds immediately.
				e.store.drop(key)
			}
		} else {
			entry.gen = e.gen.Add(1)
			e.met.sessionsBuilt.Add(1)
			e.evictLocked()
		}
		e.storeMu.Unlock()
		close(entry.ready)
		return s, err
	}
	select {
	case <-entry.ready:
		return entry.sess, entry.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// buildWithRetry runs the session build, retrying transient failures
// with capped exponential backoff (base<<attempt, capped at base<<3).
// Cancellation and deadline expiry are never retried — the caller is
// gone or out of budget.
func (e *Engine) buildWithRetry(ctx context.Context, q Query) (*session, error) {
	for attempt := 0; ; attempt++ {
		s, err := e.buildOnce(ctx, q)
		if err == nil || attempt >= e.cfg.BuildRetries ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return s, err
		}
		e.met.buildRetries.Add(1)
		delay := e.cfg.BuildRetryBackoff << attempt
		if cap := e.cfg.BuildRetryBackoff << 3; delay > cap {
			delay = cap
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// buildOnce is one build attempt, behind the engine.build injection
// point (inside the retry loop, so a Count-limited fault exercises
// fail-then-recover).
func (e *Engine) buildOnce(ctx context.Context, q Query) (*session, error) {
	if err := faultinject.Hit(ctx, faultinject.EngineBuild); err != nil {
		return nil, err
	}
	return build(ctx, q, &e.met, &e.logs)
}

// evictLocked trims the session store to its bound, dropping each
// evicted session's block log. Call with storeMu held.
func (e *Engine) evictLocked() {
	for _, key := range e.store.evict() {
		e.logs.drop(key)
		e.met.sessionsEvicted.Add(1)
	}
}

// Metrics snapshots the engine's observability state.
func (e *Engine) Metrics() Snapshot {
	entries, bytes := e.results.stats()
	e.storeMu.Lock()
	live := e.store.len()
	e.storeMu.Unlock()
	return Snapshot{
		QueriesTotal:       e.met.queries.Load(),
		CacheHitsTotal:     e.met.cacheHits.Load(),
		CacheMissesTotal:   e.met.cacheMisses.Load(),
		QueueRejectsTotal:  e.met.queueRejects.Load(),
		ErrorsTotal:        e.met.errors.Load(),
		CanceledTotal:      e.met.canceled.Load(),
		QueryTimeoutsTotal: e.met.queryTimeouts.Load(),

		BuildRetriesTotal:   e.met.buildRetries.Load(),
		BuildFailuresTotal:  e.met.buildFailures.Load(),
		WindowedBuildsTotal: e.met.windowedBuilds.Load(),

		WindowedBuildLanesTotal:  e.met.windowedBuildLanes.Load(),
		WindowedRefoldsTotal:     e.met.windowedRefolds.Load(),
		WindowedRefoldLanesTotal: e.met.windowedRefoldLanes.Load(),
		WindowedReplaysTotal:     e.met.windowedReplays.Load(),
		WindowedLogBytes:         e.logs.total(),

		SnapshotsSavedTotal:     e.met.snapshotsSaved.Load(),
		SnapshotsLoadedTotal:    e.met.snapshotsLoaded.Load(),
		SnapshotLoadErrorsTotal: e.met.snapshotLoadErrors.Load(),

		SessionsBuiltTotal:   e.met.sessionsBuilt.Load(),
		SessionsEvictedTotal: e.met.sessionsEvicted.Load(),
		SessionsLive:         live,

		ResultCacheEntries: entries,
		ResultCacheBytes:   bytes,
		ResultCacheMax:     e.cfg.CacheBytes,

		Workers:    e.cfg.Workers,
		InFlight:   int(e.met.inFlight.Load()),
		QueueDepth: len(e.jobs),
		QueueCap:   e.cfg.QueueDepth,

		LatencyP50us: e.met.latency.Quantile(0.50),
		LatencyP95us: e.met.latency.Quantile(0.95),
		LatencyP99us: e.met.latency.Quantile(0.99),

		SessionBuildP50us: e.met.sessionBuild.Quantile(0.50),
		SessionBuildP95us: e.met.sessionBuild.Quantile(0.95),
		SessionBuildP99us: e.met.sessionBuild.Quantile(0.99),
		ColdGenNS:         e.met.coldGenNS.Load(),
		ColdGenStallNS:    e.met.coldGenStallNS.Load(),
		ColdSimNS:         e.met.coldSimNS.Load(),
		ColdSimStallNS:    e.met.coldSimStallNS.Load(),

		BatchesTotal:    e.met.batches.Load(),
		BatchLanesTotal: e.met.batchLanes.Load(),
		BatchSizeHist:   batchHistSnapshot(&e.met),

		UptimeSeconds: time.Since(e.started).Seconds(),
	}
}

// batchHistSnapshot copies the batch-size histogram buckets. Not
// atomic across buckets, which is fine for monitoring.
func batchHistSnapshot(m *metrics) []int64 {
	out := make([]int64, batchHistBuckets)
	for i := range out {
		out[i] = m.batchHist[i].Load()
	}
	return out
}
