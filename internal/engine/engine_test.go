package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"icost/internal/breakdown"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/stats"
	"icost/internal/workload"
)

// testSpec is small enough that a session builds in well under a
// second but large enough that graph walks span several ctx-check
// strides.
func testSpec(bench string) SessionSpec {
	return SessionSpec{Bench: bench, Seed: 7, TraceLen: 3000, Warmup: 1500}
}

// directAnalyzer builds the same artifacts the engine would, through
// the library directly.
func directAnalyzer(t testing.TB, spec SessionSpec) *cost.Analyzer {
	t.Helper()
	spec, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Load(spec.Bench, spec.Seed, spec.Warmup+spec.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ooo.Simulate(tr, spec.machine(), ooo.Options{KeepGraph: true, Warmup: spec.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	return cost.New(res.Graph)
}

// TestGoldenEquivalence: engine answers must be bit-identical to
// direct library calls for the same (benchmark, config, seed).
func TestGoldenEquivalence(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	spec := testSpec("mcf")
	a := directAnalyzer(t, spec)

	t.Run("cost", func(t *testing.T) {
		resp, err := e.Query(ctx, Query{Session: spec, Op: OpCost, Cats: []string{"dmiss"}})
		if err != nil {
			t.Fatal(err)
		}
		if want := a.Cost(depgraph.IdealDMiss); resp.Value != want {
			t.Fatalf("cost(dmiss) = %d, direct %d", resp.Value, want)
		}
		if resp.BaseCycles != a.BaseTime() {
			t.Fatalf("base = %d, direct %d", resp.BaseCycles, a.BaseTime())
		}
	})
	t.Run("icost", func(t *testing.T) {
		resp, err := e.Query(ctx, Query{Session: spec, Op: OpICost, Cats: []string{"dmiss", "win"}})
		if err != nil {
			t.Fatal(err)
		}
		want := a.MustICost(depgraph.IdealDMiss, depgraph.IdealWindow)
		if resp.Value != want {
			t.Fatalf("icost(dmiss,win) = %d, direct %d", resp.Value, want)
		}
		if got := cost.Classify(want, 0).String(); resp.Interaction != got {
			t.Fatalf("interaction %q, direct %q", resp.Interaction, got)
		}
	})
	t.Run("breakdown", func(t *testing.T) {
		resp, err := e.Query(ctx, Query{Session: spec, Op: OpBreakdown, Focus: "dl1"})
		if err != nil {
			t.Fatal(err)
		}
		cats := breakdown.BaseCategories()
		want, err := breakdown.Focus(a, cats[0], cats, "mcf")
		if err != nil {
			t.Fatal(err)
		}
		// The engine uses flag-bit order for defaulted cats; recompute
		// with the same order for a strict comparison.
		wantSame, err := breakdown.Focus(a,
			breakdown.Category{Name: "dl1", Flags: depgraph.IdealDL1},
			catsOf(depgraph.FlagNames()), "mcf")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Breakdown, wantSame) {
			t.Fatalf("breakdown mismatch:\nengine: %+v\ndirect: %+v", resp.Breakdown, wantSame)
		}
		if resp.Breakdown.TotalCycles != want.TotalCycles {
			t.Fatalf("total cycles differ")
		}
	})
	t.Run("full", func(t *testing.T) {
		resp, err := e.Query(ctx, Query{Session: spec, Op: OpFull, Cats: []string{"dmiss", "win", "bmisp"}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := breakdown.ComputeFull(a, catsOf([]string{"dmiss", "win", "bmisp"}), "mcf")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Full, want) {
			t.Fatalf("full breakdown mismatch")
		}
		if err := resp.Full.CheckIdentity(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("matrix", func(t *testing.T) {
		resp, err := e.Query(ctx, Query{Session: spec, Op: OpMatrix})
		if err != nil {
			t.Fatal(err)
		}
		// normalize sorts matrix categories (permutation invariance),
		// so the direct computation must use the same order.
		names := append([]string(nil), depgraph.FlagNames()...)
		sort.Strings(names)
		want, err := breakdown.ComputeMatrix(a, catsOf(names), "mcf")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Matrix, want) {
			t.Fatalf("matrix mismatch")
		}
	})
	t.Run("slack", func(t *testing.T) {
		resp, err := e.Query(ctx, Query{Session: spec, Op: OpSlack})
		if err != nil {
			t.Fatal(err)
		}
		slacks := a.Graph().Slacks(depgraph.Ideal{})
		want := &SlackSummary{Insts: len(slacks)}
		var sum int64
		for _, s := range slacks {
			sum += s
			switch {
			case s == 0:
				want.Critical++
			case s < 10:
				want.Small++
			default:
				want.Large++
			}
		}
		want.MeanSlack = float64(sum) / float64(len(slacks))
		if !reflect.DeepEqual(resp.Slack, want) {
			t.Fatalf("slack = %+v, direct %+v", resp.Slack, want)
		}
	})
	t.Run("exectime", func(t *testing.T) {
		resp, err := e.Query(ctx, Query{Session: spec, Op: OpExecTime, Cats: []string{"dmiss", "win"}})
		if err != nil {
			t.Fatal(err)
		}
		if want := a.ExecTime(depgraph.IdealDMiss | depgraph.IdealWindow); resp.Value != want {
			t.Fatalf("exectime = %d, direct %d", resp.Value, want)
		}
	})
}

// TestConcurrentLoad drives >= 64 concurrent mixed queries against 3
// cached sessions — the acceptance load test (run under -race).
func TestConcurrentLoad(t *testing.T) {
	e := New(Config{Workers: 4, QueueDepth: 256})
	defer e.Close()
	ctx := context.Background()
	benches := []string{"mcf", "gzip", "gcc"}
	for _, b := range benches {
		if _, err := e.Warm(ctx, testSpec(b)); err != nil {
			t.Fatal(err)
		}
	}
	mixes := []Query{
		{Op: OpCost, Cats: []string{"dmiss"}},
		{Op: OpCost, Cats: []string{"win", "bw"}},
		{Op: OpICost, Cats: []string{"dmiss", "win"}},
		{Op: OpICost, Cats: []string{"dl1", "bmisp"}},
		{Op: OpBreakdown, Focus: "dl1"},
		{Op: OpSlack},
		{Op: OpExecTime, Cats: []string{"bmisp"}},
	}
	const n = 84 // 84 concurrent queries over 3 sessions x 7 shapes
	results := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := mixes[i%len(mixes)]
			q.Session = testSpec(benches[i%len(benches)])
			results[i], errs[i] = e.Query(ctx, q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// Identical (session, query) pairs must agree bit-for-bit.
	kind := len(mixes) * len(benches)
	for i := 0; i < n; i++ {
		j := i % kind // first issue of the same (bench, shape) combination
		if results[i].Value != results[j].Value ||
			results[i].SessionKey != results[j].SessionKey ||
			!reflect.DeepEqual(results[i].Slack, results[j].Slack) {
			t.Fatalf("divergent results for identical query %d vs %d", i, j)
		}
	}
	m := e.Metrics()
	if m.SessionsBuiltTotal != int64(len(benches)) {
		t.Fatalf("built %d sessions, want %d (dedup failed)", m.SessionsBuiltTotal, len(benches))
	}
	if m.SessionsLive != len(benches) {
		t.Fatalf("live sessions %d, want %d", m.SessionsLive, len(benches))
	}
	if m.QueriesTotal < n {
		t.Fatalf("queries served %d < %d", m.QueriesTotal, n)
	}
}

// TestResultCacheHit: a repeated query is served from the cache and
// marked Cached.
func TestResultCacheHit(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	q := Query{Session: testSpec("twolf"), Op: OpCost, Cats: []string{"dmiss"}}
	first, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	second, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat query not served from cache")
	}
	if second.Value != first.Value {
		t.Fatalf("cache changed the answer: %d vs %d", second.Value, first.Value)
	}
	if m := e.Metrics(); m.CacheHitsTotal == 0 {
		t.Fatal("metrics recorded no cache hit")
	}
}

// TestBackpressure: with one worker held busy and a one-slot queue, a
// third distinct query must be rejected with the typed error.
func TestBackpressure(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 250 * time.Millisecond})
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.onJobStart = func() {
		once.Do(func() { close(started) })
		<-release
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	enqueue := func(cat string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Query(ctx, Query{Session: testSpec("gap"), Op: OpCost, Cats: []string{cat}})
			if err != nil {
				t.Errorf("held query %s failed: %v", cat, err)
			}
		}()
	}
	enqueue("dmiss") // occupies the single worker
	<-started
	enqueue("win") // fills the one queue slot
	// The queue slot fill is asynchronous; poll until it lands.
	deadline := time.Now().Add(2 * time.Second)
	for e.Metrics().QueueDepth == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Metrics().QueueDepth != 1 {
		t.Fatal("queue never filled")
	}

	_, err := e.Query(ctx, Query{Session: testSpec("gap"), Op: OpCost, Cats: []string{"bw"}})
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("overflow query returned %v, want *QueueFullError", err)
	}
	if full.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v", full.RetryAfter)
	}
	if m := e.Metrics(); m.QueueRejectsTotal == 0 {
		t.Fatal("reject not counted")
	}
	close(release)
	wg.Wait()
}

// TestCancellation: a cancelled context aborts an in-flight graph
// query promptly — the full power-set breakdown over all eight
// categories (256 graph walks) must stop mid-walk, not run to
// completion.
func TestCancellation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := SessionSpec{Bench: "mcf", Seed: 7, TraceLen: 120000, Warmup: 1000}
	if _, err := e.Warm(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	full := Query{Session: spec, Op: OpFull}

	// Reference: how long the uncancelled query takes.
	start := time.Now()
	if _, err := e.Query(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	uncancelled := time.Since(start)

	// Same query shape against a second, identical-but-for-seed
	// session (so the result cache cannot serve it), cancelled early.
	spec2 := spec
	spec2.Seed = 8
	if _, err := e.Warm(context.Background(), spec2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), uncancelled/10+time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := e.Query(ctx, Query{Session: spec2, Op: OpFull})
	aborted := time.Since(start)
	if err == nil {
		t.Fatal("cancelled query returned a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled query returned %v", err)
	}
	if aborted > uncancelled/2+50*time.Millisecond {
		t.Fatalf("abort not prompt: %v (uncancelled query takes %v)", aborted, uncancelled)
	}
	// The worker records the cancellation just after the caller
	// returns; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for e.Metrics().CanceledTotal == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m := e.Metrics(); m.CanceledTotal == 0 {
		t.Fatal("cancellation not counted")
	}
}

// TestSessionEviction: the store holds at most MaxSessions sessions.
func TestSessionEviction(t *testing.T) {
	e := New(Config{Workers: 2, MaxSessions: 2})
	defer e.Close()
	ctx := context.Background()
	for _, b := range []string{"mcf", "gzip", "gcc"} {
		if _, err := e.Warm(ctx, testSpec(b)); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.SessionsLive > 2 {
		t.Fatalf("sessions live %d > max 2", m.SessionsLive)
	}
	if m.SessionsEvictedTotal == 0 {
		t.Fatal("no eviction recorded")
	}
}

// TestValidation: malformed queries are rejected before consuming a
// queue slot.
func TestValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()
	cases := []Query{
		{Session: SessionSpec{Bench: "nosuch"}, Op: OpCost, Cats: []string{"dmiss"}},
		{Session: testSpec("mcf"), Op: "bogus"},
		{Session: testSpec("mcf"), Op: OpCost},                           // no cats
		{Session: testSpec("mcf"), Op: OpCost, Cats: []string{"nope"}},   // bad cat
		{Session: testSpec("mcf"), Op: OpICost, Cats: []string{"dmiss"}}, // one set
		{Session: testSpec("mcf"), Op: OpBreakdown, Focus: "nosuchcat"},  // bad focus
		{Session: SessionSpec{Bench: "mcf", TraceLen: -5}, Op: OpSlack},  // bad spec
	}
	for i, q := range cases {
		if _, err := e.Query(ctx, q); err == nil {
			t.Errorf("case %d: invalid query accepted: %+v", i, q)
		}
	}
	if m := e.Metrics(); m.QueriesTotal != 0 {
		t.Fatalf("invalid queries counted as served: %d", m.QueriesTotal)
	}
}

// TestClose: Close drains queued work and subsequent queries fail
// with ErrClosed.
func TestClose(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx := context.Background()
	if _, err := e.Query(ctx, Query{Session: testSpec("vpr"), Op: OpSlack}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Query(ctx, Query{Session: testSpec("vpr"), Op: OpSlack}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close returned %v, want ErrClosed", err)
	}
}

// TestSessionKeyNormalization: defaulted and explicit specs hash the
// same; different parameters hash differently.
func TestSessionKeyNormalization(t *testing.T) {
	short := SessionSpec{Bench: "mcf"}
	explicit := SessionSpec{Bench: "mcf", Seed: 42, TraceLen: 30000, Warmup: 30000,
		DL1Latency: 2, Window: 64, BranchRecovery: 8}
	k1, err := short.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("defaulted spec hashes %s, explicit %s", k1, k2)
	}
	other := explicit
	other.Window = 128
	k3, _ := other.Key()
	if k3 == k1 {
		t.Fatal("different window hashed identically")
	}
	if _, err := (SessionSpec{}).Key(); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(1 << 10)
	mk := func(i int) *Response {
		return &Response{Op: OpCost, SessionKey: fmt.Sprintf("s%04d", i), Value: int64(i)}
	}
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("k%d", i), mk(i))
	}
	entries, bytes := c.stats()
	if bytes > 1<<10 {
		t.Fatalf("cache over budget: %d bytes", bytes)
	}
	if entries == 0 || entries >= 100 {
		t.Fatalf("eviction did not keep a working set: %d entries", entries)
	}
	if _, ok := c.get("k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if r, ok := c.get(fmt.Sprintf("k%d", 99)); !ok || r.Value != 99 {
		t.Fatal("newest entry missing")
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h stats.LatencyHist
	for i := 0; i < 90; i++ {
		h.Record(3 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(3 * time.Millisecond)
	}
	if p50 := h.Quantile(0.50); p50 > 8 {
		t.Fatalf("p50 = %dus, want <= 8us", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 2000 {
		t.Fatalf("p99 = %dus, want >= 2000us", p99)
	}
	var empty stats.LatencyHist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

// TestLatencyHistOverflowClamp: a latency past the histogram's range
// lands in the overflow bucket, and quantiles report that bucket's
// honest lower bound (2^26µs, ~67s) — never a doubled upper bound the
// histogram cannot actually distinguish.
func TestLatencyHistOverflowClamp(t *testing.T) {
	var h stats.LatencyHist
	h.Record(200 * time.Second) // far past the ~67s boundary
	want := int64(1) << 26
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("quantile(%v) = %dus, want clamped to %dus", q, got, want)
		}
	}
	// The boundary value itself also lands in (and reports) the
	// overflow bucket.
	h = stats.LatencyHist{}
	h.Record((1 << 26) * time.Microsecond)
	if got := h.Quantile(0.99); got != want {
		t.Fatalf("boundary quantile = %dus, want %dus", got, want)
	}
}

// TestQueryCatOrderCanonicalized is the cache/dedup regression for
// permutation-invariant queries: icost(b,a) must be the same cache
// entry as icost(a,b), and likewise for matrix category lists, while
// order-sensitive ops are left alone.
func TestQueryCatOrderCanonicalized(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	spec := testSpec("mcf")

	cold, err := e.Query(ctx, Query{Session: spec, Op: OpICost, Cats: []string{"win", "dmiss"}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first icost query claimed cached")
	}
	perm, err := e.Query(ctx, Query{Session: spec, Op: OpICost, Cats: []string{"dmiss", "win"}})
	if err != nil {
		t.Fatal(err)
	}
	if !perm.Cached {
		t.Fatal("permuted icost missed the cache: icost(a,b) and icost(b,a) must share one entry")
	}
	if perm.Value != cold.Value {
		t.Fatalf("permuted icost value %d != %d", perm.Value, cold.Value)
	}

	if _, err := e.Query(ctx, Query{Session: spec, Op: OpMatrix, Cats: []string{"win", "dmiss", "dl1"}}); err != nil {
		t.Fatal(err)
	}
	m, err := e.Query(ctx, Query{Session: spec, Op: OpMatrix, Cats: []string{"dl1", "win", "dmiss"}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cached {
		t.Fatal("permuted matrix missed the cache")
	}

	// Breakdown cats stay in client order (the category list orders
	// the report rows), so a permutation is a distinct query.
	if _, err := e.Query(ctx, Query{Session: spec, Op: OpBreakdown, Focus: "dl1", Cats: []string{"dl1", "dmiss"}}); err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(ctx, Query{Session: spec, Op: OpBreakdown, Focus: "dl1", Cats: []string{"dmiss", "dl1"}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cached {
		t.Fatal("permuted breakdown wrongly shared a cache entry")
	}
}

// TestBatchMetrics: every windowed pass a session folds is one batch.
// A matrix query opening a session folds its base and the k + k(k-1)/2
// unions in the build's one pass; the histogram sums to the batch
// count; and a repeat, or any query the memo answers, adds none.
func TestBatchMetrics(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	if _, err := e.Query(context.Background(), Query{Session: testSpec("gcc"), Op: OpMatrix}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	// 8 categories -> the base, 8 singles and 28 pairs: 37 lanes.
	if m.BatchesTotal != 1 || m.BatchLanesTotal != 37 {
		t.Fatalf("matrix build: %d batches over %d lanes, want 1 over 37", m.BatchesTotal, m.BatchLanesTotal)
	}
	var hist int64
	for _, c := range m.BatchSizeHist {
		hist += c
	}
	if hist != m.BatchesTotal {
		t.Fatalf("histogram sums to %d, batches total %d", hist, m.BatchesTotal)
	}

	// A repeated query, and a cost the matrix folded, are memo reads:
	// no new batches.
	before := m.BatchesTotal
	for _, q := range []Query{{Op: OpMatrix}, {Op: OpCost, Cats: []string{"dl1", "win"}}} {
		q.Session = testSpec("gcc")
		if _, err := e.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.Metrics().BatchesTotal; after != before {
		t.Fatalf("warm queries issued %d new batches", after-before)
	}
}
