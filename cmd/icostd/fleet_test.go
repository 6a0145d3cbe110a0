package main

// Daemon-level fleet data-plane tests: hosts POST binary sample
// streams to /ingest, /query with a "fleet" target answers from the
// merged aggregate, and /metrics carries both metric sets.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/faultinject"
	"icost/internal/fleet"
	"icost/internal/leakcheck"
	"icost/internal/ooo"
	"icost/internal/profiler"
	"icost/internal/workload"
)

// hostProfCfg keeps the simulated hosts cheap: short signatures,
// dense sampling, few fragments.
func hostProfCfg(traceSeed uint64) profiler.Config {
	return profiler.Config{
		SigLen:         200,
		SigInterval:    97,
		DetailInterval: 3,
		Context:        10,
		Fragments:      8,
		SignatureBits:  2,
		Seed:           traceSeed,
	}
}

// batchCache memoizes collected host batches — the simulation is the
// expensive part, and every test wants the same one or two batches.
var batchCache = struct {
	sync.Mutex
	m map[uint64]*profiler.Samples
}{m: map[uint64]*profiler.Samples{}}

// hostBatch simulates one gzip@42 host run and collects its samples.
func hostBatch(tb testing.TB, traceSeed uint64) *profiler.Samples {
	tb.Helper()
	const n, warmup = 6000, 2000
	batchCache.Lock()
	defer batchCache.Unlock()
	if s, ok := batchCache.m[traceSeed]; ok {
		return s
	}
	w, err := workload.Cached("gzip", 42)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := w.Execute(warmup+n, traceSeed)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ooo.Simulate(tr, ooo.DefaultConfig(), ooo.Options{KeepGraph: true, Warmup: warmup})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := profiler.Collect(tr, res.Graph, warmup, hostProfCfg(traceSeed))
	if err != nil {
		tb.Fatal(err)
	}
	batchCache.m[traceSeed] = s
	return s
}

// encodeStream frames batches as one host's ingestion upload.
func encodeStream(tb testing.TB, h fleet.Header, batches ...*profiler.Samples) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := fleet.WriteStream(&buf, h, batches); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func postIngest(t *testing.T, srv *httptest.Server, raw []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func newFleetServer(t *testing.T, cfg fleet.Config) (*fleet.Aggregator, *httptest.Server) {
	t.Helper()
	e := engine.New(engine.Config{Workers: 2})
	agg := fleet.NewAggregator(cfg)
	srv := httptest.NewServer(daemon.NewHandler(e, agg, daemon.Options{}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return agg, srv
}

// TestIngestAndFleetQuery is the end-to-end data plane: two hosts
// stream two batches each, the aggregate answers cost/icost/breakdown,
// the second identical query is memoized, and misses map to 404.
func TestIngestAndFleetQuery(t *testing.T) {
	agg, srv := newFleetServer(t, fleet.Config{Profiler: hostProfCfg(1)})

	for i := 0; i < 2; i++ {
		h := fleet.Header{Binary: "gzip", Seed: 42, Group: "prod", Host: fmt.Sprintf("host-%02d", i)}
		for _, seed := range []uint64{7, 8} {
			resp, out := postIngest(t, srv, encodeStream(t, h, hostBatch(t, seed)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %d/%d: status %d (%v)", i, seed, resp.StatusCode, out)
			}
			if out["batches"] != float64(1) || out["key"] != "gzip@42/prod" {
				t.Fatalf("ingest %d/%d summary: %v", i, seed, out)
			}
		}
	}

	costBody := `{"fleet":{"binary":"gzip","group":"prod","op":"cost","cats":["dl1"]}}`
	resp, out := postQuery(t, srv, costBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet cost: status %d (%v)", resp.StatusCode, out)
	}
	if out["hosts"] != float64(2) || out["batches"] != float64(4) {
		t.Fatalf("aggregate shape: %v", out)
	}
	if _, ok := out["value"].(float64); !ok {
		t.Fatalf("no numeric value: %v", out)
	}
	if out["memoized"] != false {
		t.Fatal("first fleet query claimed memoized")
	}
	resp, out = postQuery(t, srv, costBody)
	if resp.StatusCode != http.StatusOK || out["memoized"] != true {
		t.Fatalf("repeat not memoized: %d %v", resp.StatusCode, out)
	}

	resp, out = postQuery(t, srv,
		`{"fleet":{"binary":"gzip","group":"prod","op":"icost","cats":["dl1","win"]}}`)
	if resp.StatusCode != http.StatusOK || out["interaction"] == "" {
		t.Fatalf("fleet icost: %d %v", resp.StatusCode, out)
	}
	resp, out = postQuery(t, srv,
		`{"fleet":{"binary":"gzip","group":"prod","op":"breakdown"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet breakdown: %d %v", resp.StatusCode, out)
	}
	if pct, ok := out["pct"].(map[string]any); !ok || len(pct) == 0 {
		t.Fatalf("breakdown has no pct map: %v", out)
	}

	// Misses and mistakes: absent aggregate 404, malformed query 400.
	resp, _ = postQuery(t, srv, `{"fleet":{"binary":"gzip","group":"nosuch","op":"cost","cats":["dl1"]}}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent aggregate: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postQuery(t, srv, `{"fleet":{"binary":"gzip","group":"prod","op":"zap"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fleet op: status %d, want 400", resp.StatusCode)
	}

	// /metrics carries both metric sets in one flat object. Hosts
	// count once however many batches they send, and the memoized
	// repeat is the one memo hit.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var em engine.Snapshot
	var fm fleet.Snapshot
	if err := json.Unmarshal(raw, &em); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fm); err != nil {
		t.Fatal(err)
	}
	if fm.IngestBatchesTotal != 4 || fm.HostsSeen != 2 || fm.AggregatesLive != 1 || fm.MemoHitsTotal != 1 {
		t.Fatalf("fleet metrics: %+v", fm)
	}
	if em.Workers != 2 {
		t.Fatalf("engine metrics lost in combined snapshot: %+v", em)
	}
	_ = agg
}

// TestIngestErrors pins the /ingest error surface: wrong method 405,
// garbage and truncated streams 400, unknown binaries 400.
func TestIngestErrors(t *testing.T) {
	_, srv := newFleetServer(t, fleet.Config{Profiler: hostProfCfg(1)})

	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: status %d", resp.StatusCode)
	}

	if resp, out := postIngest(t, srv, []byte("this is not a stream")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage stream: status %d (%v)", resp.StatusCode, out)
	}
	full := encodeStream(t, fleet.Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h"},
		hostBatch(t, 7))
	if resp, out := postIngest(t, srv, full[:len(full)/2]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated stream: status %d (%v)", resp.StatusCode, out)
	}
	bad := encodeStream(t, fleet.Header{Binary: "nosuchbinary", Seed: 42, Group: "prod"},
		hostBatch(t, 7))
	if resp, out := postIngest(t, srv, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown binary: status %d (%v)", resp.StatusCode, out)
	}
}

// TestIngestConcurrentHosts drives 50 concurrent hosts through the
// HTTP ingest path (the ISSUE's acceptance bar, meant to run under
// -race) and checks the aggregator held its byte budget throughout.
func TestIngestConcurrentHosts(t *testing.T) {
	batch := hostBatch(t, 7)

	// Size the budget off one batch's real retained footprint so
	// eviction pressure is guaranteed: 4 groups x 3 batches/host x 50
	// hosts land in a budget that fits 6 batches.
	const hosts, batchesPerHost = 50, 3
	probe := fleet.NewAggregator(fleet.Config{Profiler: hostProfCfg(1)})
	ph := fleet.Header{Binary: "gzip", Seed: 42, Group: "probe", Host: "p"}
	if err := probe.Ingest(t.Context(), ph, batch); err != nil {
		t.Fatal(err)
	}
	one := probe.Bytes()
	if one == 0 {
		t.Fatal("probe aggregate is empty")
	}
	budget := int64(batchesPerHost) * 2 * one
	agg, srv := newFleetServer(t, fleet.Config{MaxBytes: budget, Profiler: hostProfCfg(1)})

	var wg sync.WaitGroup
	errs := make(chan error, hosts)
	for i := 0; i < hosts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := fleet.Header{
				Binary: "gzip", Seed: 42,
				Group: fmt.Sprintf("ring-%d", i%4),
				Host:  fmt.Sprintf("host-%02d", i),
			}
			for b := 0; b < batchesPerHost; b++ {
				resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream",
					bytes.NewReader(encodeStream(t, h, batch)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("host %d batch %d: status %d", i, b, resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := agg.Metrics()
	if m.IngestBatchesTotal != hosts*batchesPerHost {
		t.Fatalf("ingested %d batches, want %d", m.IngestBatchesTotal, hosts*batchesPerHost)
	}
	if got := agg.Bytes(); got > budget {
		t.Fatalf("retained %d bytes, budget %d", got, budget)
	}
	if m.EvictionsTotal == 0 {
		t.Fatal("budget pressure produced no evictions")
	}
}

// TestChaosFleetIngestFault: a fleet.ingest fault surfaces as 500
// through /ingest and the endpoint recovers once disarmed.
func TestChaosFleetIngestFault(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newFleetServer(t, fleet.Config{Profiler: hostProfCfg(1)})
	raw := encodeStream(t, fleet.Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h"},
		hostBatch(t, 7))

	faultinject.Enable(1, faultinject.Rule{Point: faultinject.FleetIngest, Err: errInjected(t)})
	defer faultinject.Disable()
	if resp, out := postIngest(t, srv, raw); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted ingest: status %d (%v), want 500", resp.StatusCode, out)
	}
	faultinject.Disable()
	if resp, out := postIngest(t, srv, raw); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery: status %d (%v), want 200", resp.StatusCode, out)
	}
}

// TestRunSnapshotLifecycle drives -snapshot-dir through run(): the
// first daemon builds a session and snapshots it at drain; the second
// restores it at startup and answers without a cold build.
func TestRunSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	const body = `{"session":{"bench":"gzip","seed":7,"trace_len":2000,"warmup":1000},
	               "op":"cost","cats":["dl1"]}`

	launch := func() (chan os.Signal, *syncBuf, *syncBuf, chan int, string) {
		sig := make(chan os.Signal, 1)
		stdout, stderr := &syncBuf{}, &syncBuf{}
		done := make(chan int, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-snapshot-dir", dir}, stdout, stderr, sig)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if m := servingRe.FindStringSubmatch(stdout.String()); m != nil {
				return sig, stdout, stderr, done, m[1]
			}
			if time.Now().After(deadline) {
				t.Fatalf("no serving log: %q / %q", stdout.String(), stderr.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	shutdown := func(sig chan os.Signal, stderr *syncBuf, done chan int) {
		t.Helper()
		sig <- os.Interrupt
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("run exited %d, stderr: %s", code, stderr.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}

	sig, stdout, stderr, done, addr := launch()
	resp, err := http.Post("http://"+addr+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	shutdown(sig, stderr, done)
	if !strings.Contains(stdout.String(), "saved 1 session snapshot(s)") {
		t.Fatalf("missing save log: %q", stdout.String())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.icss"))
	if len(files) != 1 {
		t.Fatalf("snapshot dir holds %v", files)
	}

	sig, stdout, stderr, done, addr = launch()
	if !strings.Contains(stdout.String(), "restored 1 session(s)") {
		t.Fatalf("missing restore log: %q", stdout.String())
	}
	resp, err = http.Post("http://"+addr+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored query: status %d (%v)", resp.StatusCode, out)
	}
	// The restored daemon answered off the snapshot, not a rebuild.
	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m engine.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.SnapshotsLoadedTotal != 1 || m.SessionBuildP50us != 0 {
		t.Fatalf("restored daemon rebuilt: %+v", m)
	}
	shutdown(sig, stderr, done)
}
