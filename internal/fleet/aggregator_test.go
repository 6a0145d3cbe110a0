package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/profiler"
)

func TestIngestValidation(t *testing.T) {
	a := NewAggregator(testAggConfig())
	good := hostBatch(t, "gzip", 42, 7)
	ctx := context.Background()

	var verr *ValidationError
	cases := []struct {
		name string
		h    Header
		s    *profiler.Samples
	}{
		{"missing binary", Header{Group: "prod"}, good},
		{"missing group", Header{Binary: "gzip"}, good},
		{"unknown binary", Header{Binary: "nope", Group: "prod"}, good},
		{"empty batch", Header{Binary: "gzip", Group: "prod"}, &profiler.Samples{}},
	}
	for _, c := range cases {
		if err := a.Ingest(ctx, c.h, c.s); !errors.As(err, &verr) {
			t.Errorf("%s: err = %v, want ValidationError", c.name, err)
		}
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.Ingest(cctx, Header{Binary: "gzip", Group: "prod"}, good); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v", err)
	}

	if a.Len() != 0 || a.Bytes() != 0 {
		t.Fatalf("rejected batches left state: %d aggregates, %d bytes", a.Len(), a.Bytes())
	}
	if m := a.Metrics(); m.IngestErrorsTotal != int64(len(cases)+1) || m.IngestBatchesTotal != 0 {
		t.Fatalf("metrics after rejects: %+v", m)
	}
}

func TestMergeAndQuery(t *testing.T) {
	a := NewAggregator(testAggConfig())
	ctx := context.Background()

	wantSigs := 0
	for host := 0; host < 2; host++ {
		for b := 0; b < 2; b++ {
			s := hostBatch(t, "gzip", 42, uint64(10+2*host+b))
			wantSigs += len(s.Sigs)
			h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: fmt.Sprintf("host-%02d", host)}
			if err := a.Ingest(ctx, h, s); err != nil {
				t.Fatal(err)
			}
		}
	}

	// cost: a fresh estimate over the merged pool.
	q := Query{Binary: "gzip", Group: "prod", Op: OpCost, Cats: []string{"win"}}
	r1, err := a.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hosts != 2 || r1.Batches != 4 || r1.Generation != 4 || r1.Sigs != wantSigs {
		t.Fatalf("aggregate shape: %+v", r1)
	}
	if r1.Memoized {
		t.Fatal("first query claimed a memo hit")
	}
	if r1.Fragments < 1 || r1.MatchedFrac <= 0 {
		t.Fatalf("estimate quality: %+v", r1)
	}

	// The same query again is a memo hit with identical numbers.
	r2, err := a.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Memoized || r2.Value != r1.Value || r2.StdErr != r1.StdErr {
		t.Fatalf("memo replay: first %+v, second %+v", r1, r2)
	}

	// icost over a pair, classified onto the paper's trichotomy.
	ri, err := a.Query(ctx, Query{Binary: "gzip", Group: "prod", Op: OpICost, Cats: []string{"dl1", "win"}})
	if err != nil {
		t.Fatal(err)
	}
	switch ri.Interaction {
	case "serial", "parallel", "independent":
	default:
		t.Fatalf("icost interaction %q", ri.Interaction)
	}

	// breakdown: all eight base categories plus focus interactions.
	rb, err := a.Query(ctx, Query{Binary: "gzip", Group: "prod", Op: OpBreakdown})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range depgraph.FlagNames() {
		if _, ok := rb.Pct[name]; !ok {
			t.Fatalf("breakdown missing category %q: %v", name, rb.Pct)
		}
	}
	if _, ok := rb.Pct["dl1+win"]; !ok {
		t.Fatalf("breakdown missing focus interaction: %v", rb.Pct)
	}

	// A new ingest bumps the generation and invalidates the memo.
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "host-09"}
	if err := a.Ingest(ctx, h, hostBatch(t, "gzip", 42, 29)); err != nil {
		t.Fatal(err)
	}
	r3, err := a.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Memoized || r3.Generation != 5 || r3.Hosts != 3 {
		t.Fatalf("post-ingest query: %+v", r3)
	}

	// Unpopulated aggregates are not found.
	var nf *NotFoundError
	if _, err := a.Query(ctx, Query{Binary: "gzip", Group: "canary", Op: OpCost, Cats: []string{"win"}}); !errors.As(err, &nf) {
		t.Fatalf("missing group: %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	a := NewAggregator(testAggConfig())
	ctx := context.Background()
	var verr *ValidationError
	bads := []Query{
		{Group: "prod", Op: OpCost, Cats: []string{"win"}},                         // no binary
		{Binary: "gzip", Op: OpCost, Cats: []string{"win"}},                        // no group
		{Binary: "gzip", Group: "prod", Cats: []string{"win"}},                     // no op
		{Binary: "gzip", Group: "prod", Op: "median", Cats: []string{"win"}},       // unknown op
		{Binary: "gzip", Group: "prod", Op: OpCost},                                // cost arity
		{Binary: "gzip", Group: "prod", Op: OpCost, Cats: []string{"a", "b"}},      // cost arity
		{Binary: "gzip", Group: "prod", Op: OpCost, Cats: []string{"warp"}},        // unknown cat
		{Binary: "gzip", Group: "prod", Op: OpICost, Cats: []string{"win"}},        // icost arity
		{Binary: "gzip", Group: "prod", Op: OpICost, Cats: []string{"win", "win"}}, // icost dup
		{Binary: "gzip", Group: "prod", Op: OpBreakdown, Focus: "warp"},            // unknown focus
		{Binary: "gzip", Group: "prod", Op: OpCost, Cats: []string{"win"}, Fragments: -1},
	}
	for i, q := range bads {
		if _, err := a.Query(ctx, q); !errors.As(err, &verr) {
			t.Errorf("bad query %d accepted: %v", i, err)
		}
	}
	if m := a.Metrics(); m.QueryErrorsTotal != int64(len(bads)) {
		t.Fatalf("query error metric: %+v", m)
	}
}

// TestEvictionBound: when ingest pushes the fleet past its byte
// budget, whole aggregates fall out coldest-first and the budget
// holds.
func TestEvictionBound(t *testing.T) {
	ctx := context.Background()
	s := hostBatch(t, "gzip", 42, 7)
	one := sampleBytes(s)
	cfg := testAggConfig()
	cfg.MaxBytes = one + one/2 // room for one aggregate, not two
	a := NewAggregator(cfg)

	if err := a.Ingest(ctx, Header{Binary: "gzip", Seed: 42, Group: "a", Host: "h"}, s); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 || a.Bytes() != one {
		t.Fatalf("after first ingest: %d aggregates, %d bytes", a.Len(), a.Bytes())
	}
	if err := a.Ingest(ctx, Header{Binary: "gzip", Seed: 42, Group: "b", Host: "h"}, s); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 || a.Bytes() > cfg.MaxBytes {
		t.Fatalf("after second ingest: %d aggregates, %d bytes (budget %d)", a.Len(), a.Bytes(), cfg.MaxBytes)
	}
	if m := a.Metrics(); m.EvictionsTotal != 1 {
		t.Fatalf("evictions: %+v", m)
	}

	// Group a (the cold aggregate) was the one dropped.
	var nf *NotFoundError
	if _, err := a.Query(ctx, Query{Binary: "gzip", Seed: 42, Group: "a", Op: OpCost, Cats: []string{"win"}}); !errors.As(err, &nf) {
		t.Fatalf("evicted aggregate still answers: %v", err)
	}
	if _, err := a.Query(ctx, Query{Binary: "gzip", Seed: 42, Group: "b", Op: OpCost, Cats: []string{"win"}}); err != nil {
		t.Fatalf("surviving aggregate lost: %v", err)
	}

	// Queries refresh recency: touch b, feed a, b must survive the
	// next squeeze... but a single new aggregate over budget evicts
	// down to the budget regardless, so feed a (evicts b) and verify
	// accounting stays exact.
	if err := a.Ingest(ctx, Header{Binary: "gzip", Seed: 42, Group: "a", Host: "h"}, s); err != nil {
		t.Fatal(err)
	}
	if a.Bytes() != one || a.Len() != 1 {
		t.Fatalf("byte accounting drifted: %d bytes, %d aggregates", a.Bytes(), a.Len())
	}
}

func TestConcurrentIngestBounded(t *testing.T) {
	ctx := context.Background()
	batches := []*profiler.Samples{
		hostBatch(t, "gzip", 42, 7),
		hostBatch(t, "gzip", 42, 8),
		hostBatch(t, "gzip", 42, 9),
	}
	one := sampleBytes(batches[0])
	cfg := testAggConfig()
	cfg.MaxBytes = 6 * one
	a := NewAggregator(cfg)

	const hosts = 50
	var wg sync.WaitGroup
	for hid := 0; hid < hosts; hid++ {
		wg.Add(1)
		go func(hid int) {
			defer wg.Done()
			h := Header{
				Binary: "gzip", Seed: 42,
				Group: fmt.Sprintf("g%d", hid%4),
				Host:  fmt.Sprintf("host-%02d", hid),
			}
			for b := 0; b < 3; b++ {
				if err := a.Ingest(ctx, h, batches[(hid+b)%len(batches)]); err != nil {
					t.Errorf("host %d batch %d: %v", hid, b, err)
					return
				}
				// Interleave queries against whatever survives; only
				// hard failures count, NotFound is a legal race with
				// eviction.
				q := Query{Binary: "gzip", Seed: 42, Group: h.Group, Op: OpCost, Cats: []string{"win"}}
				if _, err := a.Query(ctx, q); err != nil {
					var nf *NotFoundError
					if !errors.As(err, &nf) {
						t.Errorf("host %d query: %v", hid, err)
						return
					}
				}
			}
		}(hid)
	}
	wg.Wait()

	if a.Bytes() > cfg.MaxBytes {
		t.Fatalf("retained %d bytes, budget %d", a.Bytes(), cfg.MaxBytes)
	}
	m := a.Metrics()
	if m.IngestBatchesTotal != hosts*3 {
		t.Fatalf("ingest metric: %+v", m)
	}
	if m.AggregateBytes > m.MaxBytes {
		t.Fatalf("snapshot over budget: %+v", m)
	}
}

func TestMetricsSnapshotJSON(t *testing.T) {
	a := NewAggregator(testAggConfig())
	ctx := context.Background()
	if err := a.Ingest(ctx, Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h"}, hostBatch(t, "gzip", 42, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Query(ctx, Query{Binary: "gzip", Group: "prod", Op: OpCost, Cats: []string{"win"}}); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(a.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(raw, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"fleet_ingest_batches_total", "fleet_evictions_total",
		"fleet_aggregates_live", "fleet_aggregate_bytes",
		"fleet_queries_total", "fleet_estimates_built_total",
		"fleet_query_p99_us",
	} {
		if _, ok := flat[key]; !ok {
			t.Errorf("metrics snapshot missing %q", key)
		}
	}
	m := a.Metrics()
	if m.IngestBatchesTotal != 1 || m.QueriesTotal != 1 || m.EstimatesBuiltTotal != 1 ||
		m.AggregatesLive != 1 || m.HostsSeen != 1 || m.AggregateBytes <= 0 {
		t.Fatalf("snapshot values: %+v", m)
	}
	if m.IngestP50us <= 0 || m.QueryP50us <= 0 {
		t.Fatalf("latency quantiles not recorded: %+v", m)
	}
}
