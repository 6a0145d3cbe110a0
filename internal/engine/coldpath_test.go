package engine

import (
	"context"
	"testing"
)

// TestColdPathMetrics checks that one cold query populates the
// pipeline instrumentation: a session-build histogram sample and
// productive time in both pipeline stages (the stall counters may
// legitimately be zero when one side never blocks).
func TestColdPathMetrics(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := SessionSpec{Bench: "mcf", Seed: 7, TraceLen: 2000, Warmup: 1000}
	if _, err := e.Query(context.Background(), Query{Session: spec, Op: OpExecTime}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.SessionsBuiltTotal != 1 {
		t.Fatalf("SessionsBuiltTotal = %d, want 1", m.SessionsBuiltTotal)
	}
	if m.SessionBuildP50us <= 0 || m.SessionBuildP99us < m.SessionBuildP50us {
		t.Fatalf("implausible build quantiles: p50=%d p95=%d p99=%d",
			m.SessionBuildP50us, m.SessionBuildP95us, m.SessionBuildP99us)
	}
	if m.ColdGenNS <= 0 || m.ColdSimNS <= 0 {
		t.Fatalf("stage time not recorded: gen=%d sim=%d", m.ColdGenNS, m.ColdSimNS)
	}
	if m.ColdGenStallNS < 0 || m.ColdSimStallNS < 0 {
		t.Fatalf("negative stall time: gen=%d sim=%d", m.ColdGenStallNS, m.ColdSimStallNS)
	}
}

// TestSessionReleaseIdempotent pins the release contract: a built
// session holds its pooled graph and no node times (the build hands
// those back at once); releasing it returns the graph exactly once,
// and a second call is a no-op rather than a double-put.
func TestSessionReleaseIdempotent(t *testing.T) {
	spec, err := SessionSpec{Bench: "gzip", Seed: 3, TraceLen: 1500, Warmup: 500}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := build(context.Background(), Query{Session: spec, Op: OpExecTime}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.pooled {
		t.Fatal("built session not marked pooled")
	}
	if s.result.Graph == nil || s.result.Times != nil {
		t.Fatalf("built session holds graph %t, node times %t; want the graph only",
			s.result.Graph != nil, s.result.Times != nil)
	}
	s.release()
	if s.pooled || s.result.Graph != nil {
		t.Fatalf("release left artifacts attached: %+v", s)
	}
	s.release() // must not panic or double-put
}

// TestCloseReleasesSessions checks that Close drains the store: after
// Close the engine holds no sessions and a drained store reports
// empty, while queries are refused.
func TestCloseReleasesSessions(t *testing.T) {
	e := New(Config{Workers: 1})
	spec := SessionSpec{Bench: "mcf", Seed: 7, TraceLen: 2000, Warmup: 1000}
	if _, err := e.Query(context.Background(), Query{Session: spec, Op: OpExecTime}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.storeMu.Lock()
	n := e.store.len()
	e.storeMu.Unlock()
	if n != 0 {
		t.Fatalf("store holds %d sessions after Close, want 0", n)
	}
	if _, err := e.Query(context.Background(), Query{Session: spec, Op: OpExecTime}); err != ErrClosed {
		t.Fatalf("query after Close: %v, want ErrClosed", err)
	}
}
