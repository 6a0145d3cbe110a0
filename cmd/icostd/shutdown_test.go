package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/fleet"
)

// TestReadyzEndpoint: readiness is a separate signal from liveness —
// flipping the ready bit turns /readyz into 503 "draining" while
// /healthz keeps reporting the process alive.
func TestReadyzEndpoint(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	ready := &atomic.Bool{}
	ready.Store(true)
	srv := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{Ready: ready}))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("ready: %d %q", code, body)
	}
	ready.Store(false)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz must stay 200 while draining, got %d", code)
	}
}

// TestWriteQueryErrorMapping pins the full error -> status table,
// including the regression that unclassified (server-side) errors are
// 500, not the old catch-all 400.
func TestWriteQueryErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&engine.QueueFullError{RetryAfter: 2 * time.Second}, http.StatusTooManyRequests},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{engine.ErrClosed, http.StatusServiceUnavailable},
		{&engine.ValidationError{Msg: "engine: unknown category"}, http.StatusBadRequest},
		{errors.New("simulating mcf: disk on fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		daemon.WriteQueryError(rec, c.err)
		if rec.Code != c.want {
			t.Errorf("%v -> %d, want %d", c.err, rec.Code, c.want)
		}
	}
	rec := httptest.NewRecorder()
	daemon.WriteQueryError(rec, &engine.QueueFullError{RetryAfter: 2 * time.Second})
	if rec.Header().Get("Retry-After") != "2" {
		t.Errorf("429 without Retry-After header")
	}
}

// syncBuf is an io.Writer safe for the run() goroutine to write while
// the test polls its contents.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var servingRe = regexp.MustCompile(`serving on ([\d.:\[\]]+)`)

// TestRunForcedShutdown: during the graceful drain a second signal
// must not be swallowed — it severs the open connection that is
// holding the drain and exits immediately.
func TestRunForcedShutdown(t *testing.T) {
	sig := make(chan os.Signal, 2)
	stdout, stderr := &syncBuf{}, &syncBuf{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, stdout, stderr, sig)
	}()

	// The daemon logs the real bound address once the listener is up.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := servingRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no serving log: %q / %q", stdout.String(), stderr.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// An in-flight connection (headers never finished) keeps the
	// graceful drain waiting out its full 30s budget.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /query HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}

	sig <- os.Interrupt
	deadline = time.Now().Add(5 * time.Second)
	for !strings.Contains(stdout.String(), "draining") {
		if time.Now().After(deadline) {
			t.Fatalf("no drain log: %q", stdout.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	sig <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("forced shutdown exited %d, stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second signal did not force shutdown")
	}
	if !strings.Contains(stdout.String(), "forcing immediate shutdown") {
		t.Fatalf("missing force log: %q", stdout.String())
	}
}
