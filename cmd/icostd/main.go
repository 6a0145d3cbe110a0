// Command icostd is the interaction-cost analysis daemon: a thin
// HTTP front end over internal/engine that keeps built dependence
// graphs resident and answers cost/icost/breakdown/slack/matrix
// queries concurrently. One expensive build (workload generation +
// cycle-level simulation + graph construction) amortizes across every
// subsequent query — the paper's O(|graph|)-per-query efficiency
// argument, served over a socket.
//
// The daemon also carries the fleet data plane (internal/fleet):
// many hosts POST binary sample streams to /ingest, an in-process
// aggregator merges them per (binary, seed, host-group) under a byte
// budget, and /query answers against the merged profile when the
// request carries a "fleet" target instead of a session spec.
//
// With -route the same binary runs as a routing tier instead of a
// shard: it consistent-hashes session and fleet keys across the
// listed backend daemons, replicates hot sessions between them by
// shipping ICSS snapshots, hedges replicated reads against slow
// shards, and admits tenants under a per-tenant quota. The routed
// surface is byte-compatible with the single-daemon surface, so
// clients need not know whether they talk to one shard or thirty.
//
// Usage:
//
//	icostd [-addr :8090] [-workers n] [-queue depth] [-cache-mb mb]
//	       [-sessions n] [-preload bench1,bench2,...] [-pprof]
//	       [-query-timeout 30s] [-fleet-mb mb] [-snapshot-dir dir]
//	       [-faults spec] [-fault-seed n]
//	icostd -route http://b1:8090,http://b2:8090 [-addr :8089]
//	       [-replicas n] [-hedge-after d] [-hot-threshold n]
//	       [-load-factor f] [-tenant-qps n] [-tenant-burst n]
//
// Endpoints (shard and router):
//
//	POST /query         JSON engine.Query -> JSON engine.Response, or
//	                    {"fleet": {...}} -> JSON fleet.Response
//	POST /ingest        binary fleet sample stream (fleet.WriteStream)
//	GET  /metrics       engine + fleet counters, gauges and quantiles
//	                    (router: routing counters instead)
//	GET  /healthz       liveness + uptime
//	GET  /readyz        readiness (503 while draining at shutdown)
//	GET  /debug/pprof/  Go runtime profiles (only with -pprof)
//
// Shard-only replication plane (used by the router):
//
//	GET  /sessions      resident sessions with install generations
//	GET  /snapshot      one session's ICSS snapshot bytes
//	POST /restore       install a pushed ICSS snapshot
//
// A full queue returns 429 with a Retry-After header (backpressure,
// never unbounded buffering). SIGINT/SIGTERM drain in-flight queries
// before exit; a second signal during the drain forces immediate
// shutdown. With -snapshot-dir the daemon restores built sessions
// from the directory at startup and snapshots the resident sessions
// back to it after the drain, so a restart skips the cold builds.
// See README.md "Analysis service" and "Horizontal scaling" for curl
// sessions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/faultinject"
	"icost/internal/fleet"
	"icost/internal/router"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// options holds the daemon's parsed flags.
type options struct {
	addr         string
	workers      int
	queue        int
	cacheMB      int
	sessions     int
	preload      string
	pprof        bool
	queryTimeout time.Duration
	fleetMB      int
	snapshotDir  string
	envelope     string
	faults       string
	faultSeed    uint64

	// router mode
	route        string
	replicas     int
	hedgeAfter   time.Duration
	hotThreshold int
	loadFactor   float64
	tenantQPS    float64
	tenantBurst  int
}

// defineFlags registers every daemon flag on fs. Separated from run
// so the flag-audit test can inspect names, defaults and usage text
// without executing the daemon.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0),
		"worker pool size (defaults to GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "job queue depth (0 = 4x workers)")
	fs.IntVar(&o.cacheMB, "cache-mb", 64, "result cache budget in MiB")
	fs.IntVar(&o.sessions, "sessions", 8, "max resident sessions")
	fs.StringVar(&o.preload, "preload", "", "comma-separated benchmarks to build at startup")
	fs.BoolVar(&o.pprof, "pprof", false,
		"serve Go runtime profiles under /debug/pprof/ (off by default)")
	fs.DurationVar(&o.queryTimeout, "query-timeout", 30*time.Second,
		"server-side deadline per query once dequeued (0 = unlimited)")
	fs.IntVar(&o.fleetMB, "fleet-mb", 64,
		"fleet aggregate sample pool budget in MiB (coldest aggregates evicted past it)")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "",
		"directory for durable session snapshots: restored at startup, saved at drain (empty = off)")
	fs.StringVar(&o.envelope, "envelope", "",
		"path to a BENCH_sens.json accuracy envelope to advertise on sensitivity responses (empty = none)")
	fs.StringVar(&o.faults, "faults", "",
		"fault-injection spec, e.g. engine.build:err%0.5,icostd.query:lat=50ms (testing only)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1,
		"seed for probabilistic fault injection (replayable)")

	fs.StringVar(&o.route, "route", "",
		"run as a router over these comma-separated backend URLs instead of as a shard")
	fs.IntVar(&o.replicas, "replicas", 2,
		"router: target shard count holding each hot session (primary included)")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 50*time.Millisecond,
		"router: hedge a replicated read at a replica after this long on the primary (0 = no hedging)")
	fs.IntVar(&o.hotThreshold, "hot-threshold", 3,
		"router: routed-query count at which a session replicates")
	fs.Float64Var(&o.loadFactor, "load-factor", 1.25,
		"router: bounded-load factor (no shard takes more than this times the mean in-flight load)")
	fs.Float64Var(&o.tenantQPS, "tenant-qps", 0,
		"router: per-tenant admitted requests/s, X-Icost-Tenant header keyed (0 = quota off)")
	fs.IntVar(&o.tenantBurst, "tenant-burst", 10,
		"router: per-tenant admission burst size")
	return o
}

// run is the testable entry point: it parses flags, starts the
// engine (or the router, with -route), serves until a signal arrives
// on sig (nil = install the real SIGINT/SIGTERM handler), then drains
// and exits.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("icostd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.faults != "" {
		rules, err := faultinject.ParseSpec(o.faults)
		if err != nil {
			fmt.Fprintln(stderr, "icostd: -faults:", err)
			return 2
		}
		faultinject.Enable(o.faultSeed, rules...)
		defer faultinject.Disable()
		fmt.Fprintf(stdout, "icostd: fault injection ENABLED (seed %d): %s\n", o.faultSeed, o.faults)
	}
	if o.route != "" {
		return runRouter(o, stdout, stderr, sig)
	}
	if o.cacheMB < 1 || o.sessions < 1 {
		fmt.Fprintln(stderr, "icostd: -cache-mb and -sessions must be >= 1")
		return 2
	}
	if o.workers < 1 {
		fmt.Fprintln(stderr, "icostd: -workers must be >= 1")
		return 2
	}
	if o.queryTimeout < 0 {
		fmt.Fprintln(stderr, "icostd: -query-timeout must be >= 0")
		return 2
	}
	if o.fleetMB < 1 {
		fmt.Fprintln(stderr, "icostd: -fleet-mb must be >= 1")
		return 2
	}
	var accuracy map[string]float64
	if o.envelope != "" {
		acc, err := loadEnvelope(o.envelope)
		if err != nil {
			fmt.Fprintln(stderr, "icostd: -envelope:", err)
			return 2
		}
		accuracy = acc
		fmt.Fprintf(stdout, "icostd: advertising accuracy envelope from %s (%d knobs)\n", o.envelope, len(acc))
	}

	e := engine.New(engine.Config{
		Workers:      o.workers,
		QueueDepth:   o.queue,
		CacheBytes:   int64(o.cacheMB) << 20,
		MaxSessions:  o.sessions,
		QueryTimeout: o.queryTimeout,
		Accuracy:     accuracy,
	})
	agg := fleet.NewAggregator(fleet.Config{MaxBytes: int64(o.fleetMB) << 20})

	if o.snapshotDir != "" {
		n, err := e.LoadSnapshots(context.Background(), o.snapshotDir)
		if err != nil {
			fmt.Fprintln(stderr, "icostd: load snapshots:", err)
			e.Close()
			return 1
		}
		fmt.Fprintf(stdout, "icostd: restored %d session(s) from %s\n", n, o.snapshotDir)
	}

	if o.preload != "" {
		for _, b := range strings.Split(o.preload, ",") {
			b = strings.TrimSpace(b)
			key, err := e.Warm(context.Background(), engine.SessionSpec{Bench: b})
			if err != nil {
				fmt.Fprintln(stderr, "icostd: preload:", err)
				e.Close()
				return 1
			}
			fmt.Fprintf(stdout, "icostd: preloaded %s (session %s)\n", b, key)
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(stderr, "icostd:", err)
		e.Close()
		return 1
	}
	ready := &atomic.Bool{}
	ready.Store(true)
	srv := &http.Server{
		Handler:           daemon.NewHandler(e, agg, daemon.Options{Pprof: o.pprof, Ready: ready}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "icostd: serving on %s (%d workers)\n", ln.Addr(), e.Metrics().Workers)

	if sig == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sig = ch
	}
	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "icostd:", err)
		e.Close()
		return 1
	case <-sig:
	}

	// Graceful drain: flip readiness so load balancers stop routing
	// here, then give in-flight queries up to 30s. A second signal
	// during the drain skips the wait and severs connections.
	ready.Store(false)
	fmt.Fprintln(stdout, "icostd: shutting down, draining in-flight queries")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(stderr, "icostd: shutdown:", err)
		}
	case <-sig:
		fmt.Fprintln(stdout, "icostd: second signal, forcing immediate shutdown")
		if err := srv.Close(); err != nil {
			fmt.Fprintln(stderr, "icostd: close:", err)
		}
		<-done
	}
	// Snapshot resident sessions after the drain (queries are done
	// mutating the LRU) but before Close releases the pooled graph
	// arenas the sessions point into.
	if o.snapshotDir != "" {
		if n, err := e.SaveSnapshots(context.Background(), o.snapshotDir); err != nil {
			fmt.Fprintln(stderr, "icostd: save snapshots:", err)
		} else {
			fmt.Fprintf(stdout, "icostd: saved %d session snapshot(s) to %s\n", n, o.snapshotDir)
		}
	}
	e.Close()
	return 0
}

// runRouter serves the routing tier: same listen/drain lifecycle as a
// shard, but the handler proxies to the -route backends instead of
// owning an engine.
func runRouter(o *options, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	var backends []string
	for _, b := range strings.Split(o.route, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		fmt.Fprintln(stderr, "icostd: -route needs at least one backend URL")
		return 2
	}
	if o.replicas < 1 {
		fmt.Fprintln(stderr, "icostd: -replicas must be >= 1")
		return 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt, err := router.New(ctx, router.Config{
		Backends:     backends,
		Replicas:     o.replicas,
		HedgeAfter:   o.hedgeAfter,
		HotThreshold: o.hotThreshold,
		LoadFactor:   o.loadFactor,
		TenantRate:   o.tenantQPS,
		TenantBurst:  o.tenantBurst,
	})
	if err != nil {
		fmt.Fprintln(stderr, "icostd:", err)
		return 1
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(stderr, "icostd:", err)
		return 1
	}
	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "icostd: routing on %s over %d backend(s)\n", ln.Addr(), len(backends))

	if sig == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sig = ch
	}
	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "icostd:", err)
		return 1
	case <-sig:
	}
	fmt.Fprintln(stdout, "icostd: router shutting down")
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "icostd: shutdown:", err)
	}
	return 0
}

// loadEnvelope reads the accuracy envelope out of a BENCH_sens.json
// file (written by internal/refute's REFUTE_WRITE mode). Only the
// "envelope" member matters here; the rest of the file is the
// refutation harness's record keeping.
func loadEnvelope(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Envelope map[string]float64 `json:"envelope"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(f.Envelope) == 0 {
		return nil, fmt.Errorf("%s has no envelope member", path)
	}
	for knob, v := range f.Envelope {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: knob %q has invalid bound %v", path, knob, v)
		}
	}
	return f.Envelope, nil
}
