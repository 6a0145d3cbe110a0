package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"icost/internal/cost"
	"icost/internal/daemon"
	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/fleet"
	"icost/internal/ooo"
	"icost/internal/workload"
)

func newTestServer(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	e := engine.New(engine.Config{Workers: 2})
	srv := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

func postQuery(t *testing.T, srv *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestQueryEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	body := `{"session":{"bench":"mcf","seed":7,"trace_len":2000,"warmup":1000},
	          "op":"cost","cats":["dmiss"]}`
	resp, out := postQuery(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["op"] != "cost" || out["bench"] != "mcf" {
		t.Fatalf("bad response: %v", out)
	}
	if _, ok := out["value"].(float64); !ok {
		t.Fatalf("no numeric value in %v", out)
	}
	if out["cached"] != false {
		t.Fatal("first query claimed cached")
	}
	// Same query again: served from cache.
	resp, out = postQuery(t, srv, body)
	if resp.StatusCode != http.StatusOK || out["cached"] != true {
		t.Fatalf("repeat not cached: %d %v", resp.StatusCode, out)
	}
}

// TestQueryWindowedSession: window_insts in the session spec sets the
// block size of the session's windowed passes; every response reports
// the build's block count and peak bytes, and the answers equal the
// library's whole-graph walk whatever the block size. Slack simulates a
// whole graph, so it answers up to 1<<24 instructions and is refused
// past that before any build runs.
func TestQueryWindowedSession(t *testing.T) {
	e, srv := newTestServer(t)
	resp, out := postQuery(t, srv, `{"session":{"bench":"mcf","seed":7,"trace_len":16777217,"window_insts":256},"op":"slack"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("slack past 1<<24 instructions: status %d: %v", resp.StatusCode, out)
	}
	if n := e.Metrics().WindowedBuildsTotal; n != 0 {
		t.Fatalf("a refused slack query ran %d builds", n)
	}
	tr, err := workload.Load("mcf", 7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ooo.Simulate(tr, ooo.DefaultConfig(), ooo.Options{KeepGraph: true, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	want := cost.New(res.Graph).Cost(depgraph.IdealDMiss)
	for _, tc := range []struct {
		blocks  string
		windows float64
	}{{"", 1}, {`,"window_insts":256`, 8}} {
		spec := `{"bench":"mcf","seed":7,"trace_len":2000,"warmup":1000` + tc.blocks + `}`
		resp, got := postQuery(t, srv, `{"session":`+spec+`,"op":"cost","cats":["dmiss"]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %v", spec, resp.StatusCode, got)
		}
		if got["windows"] != tc.windows || got["peak_bytes"] == nil {
			t.Fatalf("%s: run shape missing: %v", spec, got)
		}
		if got["value"] != float64(want) || got["base_cycles"] != float64(res.Cycles) {
			t.Fatalf("%s: answer %v, base %v; library %d, %d", spec, got["value"], got["base_cycles"], want, res.Cycles)
		}
		resp, sl := postQuery(t, srv, `{"session":`+spec+`,"op":"slack"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: slack status %d: %v", spec, resp.StatusCode, sl)
		}
		if m, _ := sl["slack"].(map[string]any); m == nil || m["insts"] != float64(2000) {
			t.Fatalf("%s: slack answer %v", spec, sl)
		}
	}
}

func TestQueryValidationErrors(t *testing.T) {
	e, srv := newTestServer(t)
	cases := []string{
		`{"session":{"bench":"nosuch"},"op":"cost","cats":["dmiss"]}`,
		`{"session":{"bench":"mcf"},"op":"bogus"}`,
		`{"session":{"bench":"mcf"},"op":"cost","cats":["zap"]}`,
		`not json at all`,
		`{"session":{"bench":"mcf"},"op":"cost","unknown_field":1}`,
		// Past the bound the snapshot codec restores: 1<<40 whole-graph
		// instructions would ask for about 100 TB.
		`{"session":{"bench":"mcf","trace_len":1099511627776},"op":"exectime"}`,
	}
	for _, body := range cases {
		resp, out := postQuery(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if out["error"] == "" {
			t.Errorf("body %q: no error message", body)
		}
	}
	// Every refusal comes before admission: nothing was built.
	if n := e.Metrics().SessionsBuiltTotal; n != 0 {
		t.Fatalf("refused queries built %d sessions", n)
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d", resp.StatusCode)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, srv := newTestServer(t)
	postQuery(t, srv, `{"session":{"bench":"gzip","seed":7,"trace_len":2000,"warmup":1000},"op":"slack"}`)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m engine.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.QueriesTotal < 1 || m.SessionsBuiltTotal < 1 || m.Workers != 2 {
		t.Fatalf("implausible metrics: %+v", m)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}
}

func TestClosedEngineUnavailable(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	srv := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{}))
	defer srv.Close()
	e.Close()
	resp, out := postQueryRaw(t, srv, `{"session":{"bench":"mcf"},"op":"slack"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed engine: status %d, body %v", resp.StatusCode, out)
	}
}

func postQueryRaw(t *testing.T, srv *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// TestRunLifecycle exercises the daemon end to end: flag parsing,
// preload, serving, and graceful signal shutdown.
func TestRunLifecycle(t *testing.T) {
	sig := make(chan os.Signal, 1)
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, &stdout, &stderr, sig)
	}()
	// The daemon binds asynchronously; give it a beat, then signal.
	time.Sleep(200 * time.Millisecond)
	sig <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stdout.String(), "serving on") {
		t.Fatalf("missing startup log: %q", stdout.String())
	}
	if !strings.Contains(stdout.String(), "draining") {
		t.Fatalf("missing drain log: %q", stdout.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workers", "zap"}, &stdout, &stderr, nil); code == 0 {
		t.Fatal("bad -workers accepted")
	}
	if stderr.Len() == 0 {
		t.Fatal("no error printed to stderr")
	}
	stderr.Reset()
	if code := run([]string{"-cache-mb", "0"}, &stdout, &stderr, nil); code == 0 {
		t.Fatal("zero cache accepted")
	}
	if !strings.Contains(stderr.String(), "cache-mb") {
		t.Fatalf("unhelpful error: %q", stderr.String())
	}
	stderr.Reset()
	sig := make(chan os.Signal, 1)
	close(sig)
	if code := run([]string{"-preload", "nosuchbench", "-addr", "127.0.0.1:0"}, &stdout, &stderr, sig); code != 1 {
		t.Fatalf("bad preload exited %d", code)
	}
	if !strings.Contains(stderr.String(), "nosuchbench") {
		t.Fatalf("preload error not mentioned: %q", stderr.String())
	}
}
