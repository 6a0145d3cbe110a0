package engine

// Chaos suite: drives every engine-side fault-injection point with
// deterministic, seeded fault plans and asserts the service degrades
// the way the docs promise — errors surface typed, followers are
// never poisoned by a leader's departure, failed builds retry then
// back off, nothing leaks a goroutine. Run via `make chaos` (the
// TestChaos name prefix is the suite's contract with the Makefile).

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"icost/internal/faultinject"
	"icost/internal/leakcheck"
)

var errBoom = errors.New("boom")

// chaosQuery is the suite's standard cheap query: one cost walk
// against the shared test session.
func chaosQuery(spec SessionSpec) Query {
	return Query{Session: spec, Op: OpCost, Cats: []string{"dmiss"}}
}

// qkeyOf computes the single-flight key the engine will use for q,
// for tests that need to inspect the flight table.
func qkeyOf(t *testing.T, q Query) string {
	t.Helper()
	spec, err := q.Session.normalize()
	if err != nil {
		t.Fatal(err)
	}
	skey, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	q.Session = spec
	q, err = q.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return q.key(skey)
}

// TestChaosFollowerSurvivesLeaderCancel is the acceptance regression
// for single-flight decoupling: a leader that cancels while a
// follower still waits must not poison the shared computation — the
// follower receives the computed result, not context.Canceled.
func TestChaosFollowerSurvivesLeaderCancel(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := testSpec("mcf")
	if _, err := e.Warm(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	// Hold the single worker at job start so the leader's computation
	// cannot finish before the leader cancels.
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate() // must run before e.Close, or the worker never exits
	started := make(chan struct{}, 4)
	e.onJobStart = func() { started <- struct{}{}; <-gate }

	q := chaosQuery(spec)
	qkey := qkeyOf(t, q)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Query(leaderCtx, q)
		leaderErr <- err
	}()
	<-started // worker picked the leader's job up and is held

	type follow struct {
		resp *Response
		err  error
	}
	followerCh := make(chan follow, 1)
	go func() {
		r, err := e.Query(context.Background(), q)
		followerCh <- follow{r, err}
	}()

	// Wait for the follower to join the flight before canceling the
	// leader, so the cancel provably happens with a live waiter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.flightMu.Lock()
		fl := e.flight[qkey]
		waiters := 0
		if fl != nil {
			waiters = fl.waiters
		}
		e.flightMu.Unlock()
		if waiters == 2 {
			break
		}
		if time.Now().After(deadline) {
			openGate()
			t.Fatalf("follower never joined the flight (waiters=%d)", waiters)
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		openGate()
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}

	openGate()
	f := <-followerCh
	if f.err != nil {
		t.Fatalf("follower poisoned by leader cancel: %v", f.err)
	}
	if f.resp == nil || f.resp.Op != OpCost || f.resp.Insts == 0 {
		t.Fatalf("follower got a degenerate response: %+v", f.resp)
	}

	// The computed result must match an undisturbed query.
	want, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if f.resp.Value != want.Value {
		t.Fatalf("follower value %d, undisturbed %d", f.resp.Value, want.Value)
	}
}

// TestChaosQueryTimeout: a wedged graph walk (injected 10s stall) is
// cut off by the server-side deadline, counted, and does not poison
// later queries.
func TestChaosQueryTimeout(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{Workers: 1, QueryTimeout: 200 * time.Millisecond})
	defer e.Close()
	spec := testSpec("mcf")
	if _, err := e.Warm(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(1, faultinject.Rule{Point: faultinject.GraphWalk, Latency: 10 * time.Second})
	defer faultinject.Disable()

	_, err := e.Query(context.Background(), chaosQuery(spec))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled query returned %v, want DeadlineExceeded", err)
	}
	m := e.Metrics()
	if m.QueryTimeoutsTotal != 1 {
		t.Fatalf("QueryTimeoutsTotal = %d, want 1", m.QueryTimeoutsTotal)
	}
	if m.CanceledTotal < 1 {
		t.Fatalf("CanceledTotal = %d, want >= 1", m.CanceledTotal)
	}

	faultinject.Disable()
	resp, err := e.Query(context.Background(), chaosQuery(spec))
	if err != nil {
		t.Fatalf("query after timeout recovery: %v", err)
	}
	if resp.Insts == 0 {
		t.Fatal("degenerate response after recovery")
	}
}

// TestChaosBuildRetry: one injected build failure is retried and the
// query succeeds; the retry is counted and the failure is not.
func TestChaosBuildRetry(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{Workers: 1, BuildRetryBackoff: time.Millisecond})
	defer e.Close()
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.EngineBuild, Err: errBoom, Count: 1})
	defer faultinject.Disable()

	resp, err := e.Query(context.Background(), chaosQuery(testSpec("mcf")))
	if err != nil {
		t.Fatalf("query should survive one build fault via retry: %v", err)
	}
	if resp.Insts == 0 {
		t.Fatal("degenerate response")
	}
	m := e.Metrics()
	if m.BuildRetriesTotal != 1 {
		t.Fatalf("BuildRetriesTotal = %d, want 1", m.BuildRetriesTotal)
	}
	if m.BuildFailuresTotal != 0 {
		t.Fatalf("BuildFailuresTotal = %d, want 0", m.BuildFailuresTotal)
	}
	if m.SessionsBuiltTotal != 1 {
		t.Fatalf("SessionsBuiltTotal = %d, want 1", m.SessionsBuiltTotal)
	}
}

// TestChaosBuildNegativeCache: a build that fails for good (retries
// disabled) is remembered for BuildFailTTL — the second query shares
// the cached failure instead of re-attempting the build.
func TestChaosBuildNegativeCache(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{Workers: 1, BuildRetries: -1, BuildFailTTL: time.Hour})
	defer e.Close()
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.EngineBuild, Err: errBoom})
	defer faultinject.Disable()

	q := chaosQuery(testSpec("mcf"))
	if _, err := e.Query(context.Background(), q); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("first query: %v, want injected failure", err)
	}
	if got := faultinject.Snapshot().Fired[faultinject.EngineBuild]; got != 1 {
		t.Fatalf("build attempts = %d, want 1", got)
	}
	// Use different cats so the query misses the flight/result paths
	// and exercises the session store's negative entry directly.
	q2 := q
	q2.Cats = []string{"win"}
	if _, err := e.Query(context.Background(), q2); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("second query: %v, want cached failure", err)
	}
	if got := faultinject.Snapshot().Fired[faultinject.EngineBuild]; got != 1 {
		t.Fatalf("build attempts after negative-cache hit = %d, want still 1", got)
	}
	if m := e.Metrics(); m.BuildFailuresTotal != 1 {
		t.Fatalf("BuildFailuresTotal = %d, want 1", m.BuildFailuresTotal)
	}
}

// TestChaosBuildFailureDropped: with a negative BuildFailTTL the
// failure is forgotten immediately and the next query rebuilds.
func TestChaosBuildFailureDropped(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{Workers: 1, BuildRetries: -1, BuildFailTTL: -1})
	defer e.Close()
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.EngineBuild, Err: errBoom, Count: 1})
	defer faultinject.Disable()

	q := chaosQuery(testSpec("mcf"))
	if _, err := e.Query(context.Background(), q); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("first query: %v, want injected failure", err)
	}
	resp, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("rebuild after dropped failure: %v", err)
	}
	if resp.Insts == 0 {
		t.Fatal("degenerate response")
	}
}

// TestChaosColdPathFaults drives an always-on error fault through
// each cold-path and admission point: the query fails with the
// injected error and, once the fault is disarmed, the same engine
// recovers without a restart.
func TestChaosColdPathFaults(t *testing.T) {
	points := []faultinject.Point{
		faultinject.WorkloadGen,
		faultinject.OOOSim,
		faultinject.OOOGraph,
		faultinject.EngineAdmit,
		faultinject.EngineBuild,
	}
	for _, pt := range points {
		t.Run(string(pt), func(t *testing.T) {
			leakcheck.Check(t)
			e := New(Config{Workers: 2, BuildRetries: -1, BuildFailTTL: -1})
			defer e.Close()
			faultinject.Enable(7, faultinject.Rule{Point: pt, Err: errBoom})
			defer faultinject.Disable()

			q := chaosQuery(testSpec("mcf"))
			if _, err := e.Query(context.Background(), q); err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("faulted query: %v, want injected error", err)
			}
			if got := faultinject.Snapshot().Fired[pt]; got == 0 {
				t.Fatalf("point %s never fired", pt)
			}
			faultinject.Disable()
			resp, err := e.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("recovery query: %v", err)
			}
			if resp.Insts == 0 {
				t.Fatal("degenerate response after recovery")
			}
		})
	}
}

// TestChaosCachePutFault: a faulted result-cache insert costs a
// recomputation, never the answer — queries keep succeeding, they
// just stop being served from cache until the fault is disarmed.
func TestChaosCachePutFault(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := testSpec("mcf")
	if _, err := e.Warm(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.EngineCachePut, Err: errBoom})
	defer faultinject.Disable()

	q := chaosQuery(spec)
	for i := 0; i < 2; i++ {
		resp, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d under cache-put fault: %v", i, err)
		}
		if resp.Cached {
			t.Fatalf("query %d served from cache despite faulted puts", i)
		}
	}
	faultinject.Disable()
	if resp, err := e.Query(context.Background(), q); err != nil || resp.Cached {
		t.Fatalf("first post-fault query: err=%v cached=%v, want fresh success", err, resp.Cached)
	}
	if resp, err := e.Query(context.Background(), q); err != nil || !resp.Cached {
		t.Fatalf("second post-fault query: err=%v, want cache hit", err)
	}
}

// TestChaosCancelFault: a Cancel-mode fault severs the computation's
// real context (registered by the flight leader), surfacing as
// context.Canceled; the canceled build is dropped, so the next query
// rebuilds cleanly.
func TestChaosCancelFault(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{Workers: 1})
	defer e.Close()
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.EngineBuild, Cancel: true, Count: 1})
	defer faultinject.Disable()

	q := chaosQuery(testSpec("mcf"))
	if _, err := e.Query(context.Background(), q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel fault returned %v, want context.Canceled", err)
	}
	resp, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query after cancel fault: %v", err)
	}
	if resp.Insts == 0 {
		t.Fatal("degenerate response")
	}
}

// TestChaosSeededStormReplays runs a deterministic query storm under
// probabilistic faults twice with the same seed and asserts the
// success/failure pattern replays exactly — the property that makes a
// chaos failure from CI reproducible at a desk. It also checks the
// engine's books: successes equal QueriesTotal and every fault fired
// no more often than its point was hit.
func TestChaosSeededStormReplays(t *testing.T) {
	leakcheck.Check(t)
	storm := func(seed uint64) ([]bool, Snapshot, faultinject.Stats) {
		e := New(Config{
			Workers: 1, BuildRetries: -1, BuildFailTTL: -1,
			BuildRetryBackoff: time.Millisecond,
		})
		defer e.Close()
		faultinject.Enable(seed,
			faultinject.Rule{Point: faultinject.WorkloadGen, Err: errBoom, Prob: 0.02},
			faultinject.Rule{Point: faultinject.GraphWalk, Err: errBoom, Prob: 0.3},
			faultinject.Rule{Point: faultinject.EngineCachePut, Err: errBoom, Prob: 0.5},
		)
		defer faultinject.Disable()

		specs := []SessionSpec{testSpec("mcf"), testSpec("vortex")}
		queries := []Query{
			{Op: OpCost, Cats: []string{"dmiss"}},
			{Op: OpExecTime, Cats: []string{"win"}},
			{Op: OpICost, Cats: []string{"dmiss", "win"}},
			{Op: OpCost, Cats: []string{"bmisp"}},
		}
		var pattern []bool
		for round := 0; round < 3; round++ {
			for _, spec := range specs {
				for _, q := range queries {
					q.Session = spec
					_, err := e.Query(context.Background(), q)
					pattern = append(pattern, err == nil)
				}
			}
		}
		return pattern, e.Metrics(), faultinject.Snapshot()
	}

	p1, m1, s1 := storm(99)
	p2, _, _ := storm(99)
	if len(p1) != len(p2) {
		t.Fatalf("pattern lengths differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at query %d: %v vs %v\n%v\n%v", i, p1[i], p2[i], p1, p2)
		}
	}

	ok, fail := 0, 0
	for _, s := range p1 {
		if s {
			ok++
		} else {
			fail++
		}
	}
	if ok == 0 || fail == 0 {
		t.Fatalf("storm should mix successes and failures, got %d ok / %d fail", ok, fail)
	}
	if m1.QueriesTotal != int64(ok) {
		t.Fatalf("QueriesTotal = %d, successes = %d", m1.QueriesTotal, ok)
	}
	for pt, fired := range s1.Fired {
		if hits := s1.Hits[pt]; fired > hits {
			t.Fatalf("point %s fired %d times on %d hits", pt, fired, hits)
		}
	}
}

// TestChaosWindowed drives faults through the windowed pipeline,
// whose fold runs on worker goroutines behind the simulator and whose
// trace arrives in recycled segments from a generator goroutine ahead
// of it: an ooo.sim error, a workload.gen error, and a mid-pass
// context cancellation fired from either side, each during a windowed
// build (opened by a cost query, and by a sensitivity query whose
// build folds α-scaled lanes), a windowed sensitivity re-fold, and the
// re-fold of a memo miss outside what the build folded. Every faulted
// call returns a typed error, leaves no fold or generator goroutine
// behind and memoizes nothing — so the retry re-folds exactly the
// lanes an unfaulted pass does — and the same query then answers
// exactly as the whole-graph session does.
func TestChaosWindowed(t *testing.T) {
	ctx := context.Background()
	// 1024-instruction trace segments: the fault fires at segment 7
	// of 13, once some twenty 256-instruction blocks have been folded
	// and every recycled segment buffer has gone round at least once.
	spec := SessionSpec{Bench: "gcc", Seed: 5, TraceLen: 12000, Warmup: 1000, WindowInsts: 256}
	whole := spec
	whole.WindowInsts = 0
	passes := []struct {
		name  string
		q     Query
		warm  bool  // build the session first, so the fault hits the re-fold
		build int64 // lanes the unfaulted retry builds
		lanes int64 // lanes an unfaulted pass re-folds after the build
	}{
		{"build", Query{Session: spec, Op: OpCost, Cats: []string{"dmiss"}}, false, 2, 0},
		{"sensitivity-build", Query{Session: spec, Op: OpSensitivity, Cats: []string{"dl1", "win"}}, false, 9, 0},
		{"sensitivity", Query{Session: spec, Op: OpSensitivity, Cats: []string{"dl1", "win"}}, true, 0, 8},
		{"miss", Query{Session: spec, Op: OpExecTime, Cats: []string{"dl1", "win", "bw"}}, true, 0, 1},
	}
	faults := []struct {
		name string
		rule faultinject.Rule
		want error
	}{
		{"sim-error", faultinject.Rule{Point: faultinject.OOOSim, Err: errBoom, After: 6}, errBoom},
		{"cancel", faultinject.Rule{Point: faultinject.OOOSim, Cancel: true, After: 6}, context.Canceled},
		{"gen-error", faultinject.Rule{Point: faultinject.WorkloadGen, Err: errBoom, After: 6}, errBoom},
		{"gen-cancel", faultinject.Rule{Point: faultinject.WorkloadGen, Cancel: true, After: 6}, context.Canceled},
	}
	for _, p := range passes {
		for _, f := range faults {
			t.Run(p.name+"/"+f.name, func(t *testing.T) {
				leakcheck.Check(t)
				e := New(Config{Workers: 1, BuildRetries: -1, BuildFailTTL: -1})
				defer e.Close()
				wq := p.q
				wq.Session = whole
				want, err := e.Query(ctx, wq)
				if err != nil {
					t.Fatal(err)
				}
				var known int
				if p.warm {
					key, err := e.Warm(ctx, spec)
					if err != nil {
						t.Fatal(err)
					}
					known = len(e.sessionByKey(key).analyzer.Known())
				}
				faultinject.Enable(13, f.rule)
				defer faultinject.Disable()

				if _, err := e.Query(ctx, p.q); !errors.Is(err, f.want) {
					t.Fatalf("faulted %s: %v, want %v", p.name, err, f.want)
				}
				if got := faultinject.Snapshot().Fired[f.rule.Point]; got != 1 {
					t.Fatalf("%s fired %d times, want 1", f.rule.Point, got)
				}
				if p.warm {
					key, _ := spec.Key()
					if got := len(e.sessionByKey(key).analyzer.Known()); got != known {
						t.Fatalf("faulted %s memoized %d entries, want %d", p.name, got, known)
					}
				}
				faultinject.Disable()
				before := e.Metrics()
				resp, err := e.Query(ctx, p.q)
				if err != nil {
					t.Fatalf("%s after the fault: %v", p.name, err)
				}
				after := e.Metrics()
				if lanes := after.WindowedBuildLanesTotal - before.WindowedBuildLanesTotal; lanes != p.build {
					t.Fatalf("%s after the fault built %d lanes, want %d", p.name, lanes, p.build)
				}
				if lanes := after.WindowedRefoldLanesTotal - before.WindowedRefoldLanesTotal; lanes != p.lanes {
					t.Fatalf("%s after the fault re-folded %d lanes, want %d", p.name, lanes, p.lanes)
				}
				if !resp.Windowed || resp.Insts != spec.TraceLen {
					t.Fatalf("degenerate response after recovery: windowed %v, insts %d", resp.Windowed, resp.Insts)
				}
				if g, w := answerOnly(t, resp), answerOnly(t, want); !bytes.Equal(g, w) {
					t.Fatalf("%s after the fault diverged:\n  whole:    %s\n  windowed: %s", p.name, w, g)
				}
			})
		}
	}
}
