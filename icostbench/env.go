package main

// The in-process service a workload drives: shard daemons (engine +
// daemon.NewHandler) and an optional router, each on its own
// 127.0.0.1 listener, so every request crosses real loopback sockets.
// Each layer boundary carries a span hook that records nothing until
// a tracer is installed, so untraced and traced windows run the same
// code.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/fleet"
	"icost/internal/router"
)

// reqHeader carries the request id from the load generator to the
// router and, through the injected transport, on to the shard.
const reqHeader = "X-Icostbench-Req"

type reqIDKey struct{}

type shard struct {
	url string
	e   *engine.Engine
	srv *http.Server
}

type env struct {
	shards []*shard
	rt     *router.Router
	rtSrv  *http.Server
	target string // where the load goes: the router, or the only shard
	client *http.Client

	tracer atomic.Pointer[tracer]
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

// startEnv boots n shards with engines configured by ecfg and, when
// rcfg is not nil, a router over them (rcfg's Backends and Client are
// filled in here).
func startEnv(n int, ecfg engine.Config, rcfg *router.Config) (*env, error) {
	ctx, stop := context.WithCancel(context.Background())
	e := &env{
		stop: stop,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
	}
	for i := 0; i < n; i++ {
		eng := engine.New(ecfg)
		h := daemon.NewHandler(eng, fleet.NewAggregator(fleet.Config{}), daemon.Options{})
		srv, url, err := e.serve(e.spanned("daemon", h))
		if err != nil {
			eng.Close()
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, &shard{url: url, e: eng, srv: srv})
	}
	e.target = e.shards[0].url
	if rcfg == nil {
		return e, nil
	}
	cfg := *rcfg
	for _, s := range e.shards {
		cfg.Backends = append(cfg.Backends, s.url)
	}
	cfg.Client = &http.Client{
		Transport: &spanTransport{env: e, base: &http.Transport{MaxIdleConnsPerHost: 4}},
		Timeout:   time.Minute,
	}
	rt, err := router.New(ctx, cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.rt = rt
	if e.rtSrv, e.target, err = e.serve(e.spanned("router", rt.Handler())); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// close stops the router, the servers and the engines, and waits for
// every serve loop to return.
func (e *env) close() {
	if e.rtSrv != nil {
		_ = e.rtSrv.Close()
	}
	if e.rt != nil {
		e.rt.Close()
	}
	for _, s := range e.shards {
		_ = s.srv.Close()
		s.e.Close()
	}
	e.stop()
	e.wg.Wait()
	e.client.CloseIdleConnections()
}

// post sends one JSON request to url and returns the status and body.
// With a tracer installed it tags the request and records the client
// span around the whole round trip.
func (e *env) post(ctx context.Context, url string, body []byte) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	t := e.tracer.Load()
	var id string
	if t != nil {
		id = strconv.FormatUint(t.nextID.Add(1), 10)
		req.Header.Set(reqHeader, id)
	}
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, id, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if t != nil {
		t.add(span{Req: id, Layer: "client", Start: t.since(start), End: t.since(time.Now())})
	}
	return resp.StatusCode, out, id, err
}

// spanned wraps a server handler with the span hook for layer.
func (e *env) spanned(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := e.tracer.Load()
		id := r.Header.Get(reqHeader)
		if t == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		t.add(span{Req: id, Layer: layer, Start: t.since(start), End: t.since(time.Now()), Bytes: cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// spanTransport is the router's injected client transport. It copies
// the request id from the routed request's context onto the forwarded
// request and records the forward span: from the send until the
// router has read the shard's whole response.
type spanTransport struct {
	env  *env
	base http.RoundTripper
}

func (s *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := s.env.tracer.Load()
	id, _ := req.Context().Value(reqIDKey{}).(string)
	if t == nil || id == "" {
		return s.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, id)
	start := time.Now()
	resp, err := s.base.RoundTrip(req)
	if err != nil {
		t.add(span{Req: id, Layer: "forward", Start: t.since(start), End: t.since(time.Now())})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.add(span{Req: id, Layer: "forward", Start: t.since(start), End: t.since(time.Now())})
	}}
	return resp, nil
}

// spanBody calls done once, at EOF or close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// counters is a point-in-time read of every engine's and the router's
// exported metrics.
type counters struct {
	engines []engine.Snapshot
	router  router.Snapshot
}

func (e *env) counters() counters {
	c := counters{}
	for _, s := range e.shards {
		c.engines = append(c.engines, s.e.Metrics())
	}
	if e.rt != nil {
		c.router = e.rt.Metrics()
	}
	return c
}

// engineDelta sums field over all engines between two reads.
func engineDelta(a, b counters, field func(engine.Snapshot) int64) int64 {
	var d int64
	for i := range b.engines {
		d += field(b.engines[i]) - field(a.engines[i])
	}
	return d
}

// waitReplicated polls until the router knows two homes for n sessions.
func (e *env) waitReplicated(ctx context.Context, n int) error {
	for {
		if e.rt.Metrics().ReplicatedSessions >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replication of %d sessions: %w", n, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
