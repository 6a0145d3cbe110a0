package main

// Daemon-level chaos: injected faults must come out of the HTTP
// surface with the right status codes — server-side failures as 5xx,
// never dressed up as the client's 400. Run via `make chaos`.

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/faultinject"
	"icost/internal/fleet"
	"icost/internal/leakcheck"
)

const chaosBody = `{"session":{"bench":"mcf","seed":7,"trace_len":2000,"warmup":1000},
                   "op":"cost","cats":["dmiss"]}`

// TestChaosDaemonQueryFault: a fault at the handler's own injection
// point surfaces as 500 and disarming it restores service without a
// restart.
func TestChaosDaemonQueryFault(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t)
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.DaemonQuery, Err: errInjected(t)})
	defer faultinject.Disable()

	resp, out := postQuery(t, srv, chaosBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted handler: status %d (%v), want 500", resp.StatusCode, out)
	}
	faultinject.Disable()
	resp, out = postQuery(t, srv, chaosBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery: status %d (%v), want 200", resp.StatusCode, out)
	}
}

// TestChaosBuildFaultMapsTo500 is the regression for the old
// catch-all 400: a session build that fails server-side must report
// as 500, not blame the client.
func TestChaosBuildFaultMapsTo500(t *testing.T) {
	leakcheck.Check(t)
	e := engine.New(engine.Config{Workers: 1, BuildRetries: -1, BuildFailTTL: -1})
	srv := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.EngineBuild, Err: errInjected(t)})
	defer faultinject.Disable()

	resp, out := postQuery(t, srv, chaosBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("build fault: status %d (%v), want 500", resp.StatusCode, out)
	}
	// Client mistakes still map to 400 while the fault is armed.
	resp, _ = postQuery(t, srv, `{"session":{"bench":"mcf"},"op":"cost","cats":["zap"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation error: status %d, want 400", resp.StatusCode)
	}
}

// TestChaosStallMapsTo504: an injected graph-walk stall trips the
// server-side query deadline and reports as a gateway timeout.
func TestChaosStallMapsTo504(t *testing.T) {
	leakcheck.Check(t)
	e := engine.New(engine.Config{Workers: 1, QueryTimeout: 200 * time.Millisecond})
	srv := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	// Build the session before arming the stall so only the query's
	// walk is affected.
	if resp, out := postQuery(t, srv, chaosBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: status %d (%v)", resp.StatusCode, out)
	}
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.GraphWalk, Latency: 10 * time.Second})
	defer faultinject.Disable()

	// A different category so neither result cache nor flight dedup
	// short-circuits the stalled walk.
	body := `{"session":{"bench":"mcf","seed":7,"trace_len":2000,"warmup":1000},
	          "op":"cost","cats":["win"]}`
	resp, out := postQuery(t, srv, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled query: status %d (%v), want 504", resp.StatusCode, out)
	}
}

// errInjected builds a distinct error value per test for log clarity.
func errInjected(t *testing.T) error {
	return &injectedErr{name: t.Name()}
}

type injectedErr struct{ name string }

func (e *injectedErr) Error() string { return "injected fault (" + e.name + ")" }
