// Command icostbench is the repository's end-to-end benchmark. It runs
// one seeded workload against in-process icostd shards (and, for
// warm-serve, a router in front of them) on loopback listeners, checks
// a sample of the answers against the library, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	icostbench --workload warm-serve|cold-sweep|long-trace --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run repeats the timed window on a
// freshly set-up service with spans recorded at every layer boundary,
// times the library ladder, and reports the per-layer metrics, a
// percentage tree and the tracing overhead. Every run also writes a
// JSON record (provenance, inputs, all metrics) under --records. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"icost/internal/engine"
	"icost/internal/router"
)

// opsBound is the bound BENCHMARK.json gives ops_per_s: warm-serve's
// two window halves must agree within it.
const opsBound = 0.25

const ladderReps = 3 // calls per ladder rung; the rung is their median

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	records  string

	traceLen, warmup    int           // warm-serve and cold-sweep sessions (0 = engine default)
	longLen, longWindow int           // long-trace sessions
	tamper              func(*answer) // tests only: corrupts kept answers before the check
}

func defaultConfig() *config {
	return &config{
		seed: 1, seconds: 20, records: filepath.Join(".bench_build", "records"),
		longLen: 300_000, longWindow: 4096,
	}
}

func newWorkload(cfg *config) (workloadSpec, error) {
	switch cfg.workload {
	case "warm-serve":
		return newWarmServe(cfg), nil
	case "cold-sweep":
		return &coldSweep{cfg: cfg}, nil
	case "long-trace":
		return &longTrace{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want warm-serve, cold-sweep or long-trace)", cfg.workload)
}

func main() {
	cfg := defaultConfig()
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "warm-serve, cold-sweep or long-trace")
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of each timed window")
	flag.IntVar(&traced, "trace", 0, "1 = traced run: per-layer metrics, span tree, ladder")
	flag.StringVar(&cfg.records, "records", cfg.records, "directory for run records and spans")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "icostbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traced == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icostbench:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(res.summary())
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's record.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Provenance map[string]any    `json:"provenance"`
	Inputs     map[string]any    `json:"inputs"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`  // what the last line reports
	Reported   map[string]metric `json:"reported"` // every printed metric
	Checks     map[string]any    `json:"checks"`
	Ladder     map[string]ladder `json:"ladder,omitempty"` // by GOMAXPROCS
}

func (r *result) summary() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// timedWindow is one timed closed-loop window.
type timedWindow struct {
	start, end    time.Time // end is the last operation's completion
	ops           []op
	before, after counters
}

// drive runs the workload's connections until d has passed; operations
// started before then run to completion.
func drive(ctx context.Context, w workloadSpec, e *env, d time.Duration) *timedWindow {
	win := &timedWindow{before: e.counters(), start: time.Now()}

	deadline := win.start.Add(d)
	per := make([][]op, w.conns())
	done := make(chan struct{})
	for c := range per {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], w.op(ctx, e, c))
			}
		}(c)
	}
	for range per {
		<-done
	}
	win.after = e.counters()
	for _, ops := range per {
		win.ops = append(win.ops, ops...)
	}
	sort.Slice(win.ops, func(i, j int) bool { return win.ops[i].start.Before(win.ops[j].start) })
	win.end = win.start
	for _, o := range win.ops {
		if o.end.After(win.end) {
			win.end = o.end
		}
	}
	return win
}

func (w *timedWindow) secs() float64 { return w.end.Sub(w.start).Seconds() }

func (w *timedWindow) opsPerSec() float64 { return float64(len(w.ops)) / w.secs() }

func (w *timedWindow) count(pred func(op) bool) int {
	n := 0
	for _, o := range w.ops {
		if pred(o) {
			n++
		}
	}
	return n
}

// halfRates is the completion rate in each half of the window.
func (w *timedWindow) halfRates() (float64, float64) {
	mid := w.start.Add(w.end.Sub(w.start) / 2)
	first := w.count(func(o op) bool { return !o.end.After(mid) })
	half := w.end.Sub(w.start).Seconds() / 2
	return float64(first) / half, float64(len(w.ops)-first) / half
}

// latencies returns the operation latencies in ms, sorted.
func (w *timedWindow) latencies() []float64 {
	out := make([]float64, len(w.ops))
	for i, o := range w.ops {
		out[i] = float64(o.end.Sub(o.start).Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// elapsedUs returns the engine's per-request elapsed times in µs, sorted.
func (w *timedWindow) elapsedUs() []float64 {
	var out []float64
	for _, o := range w.ops {
		for _, d := range o.elapsed {
			out = append(out, float64(d.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func (w *timedWindow) opMix() map[string]int {
	mix := map[string]int{}
	for _, o := range w.ops {
		for _, k := range o.kinds {
			mix[string(k)]++
		}
	}
	return mix
}

func (w *timedWindow) insts() int64 {
	var n int64
	for _, o := range w.ops {
		n += o.insts
	}
	return n
}

// endToEnd computes a window's user-visible metrics. Reported-only
// metrics (the tail, failures, instruction rate) go to extra.
func (w *timedWindow) endToEnd(out, extra map[string]metric, report io.Writer) {
	lat := w.latencies()
	out["ops_per_s"] = metric{w.opsPerSec(), "1/s"}
	out["p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	fmt.Fprintf(report, "ops_per_s    = %.4f 1/s (%d operations in %.3f s)\n", w.opsPerSec(), len(w.ops), w.secs())

	fmt.Fprintf(report, "p50_ms       = %.4f ms (n=%d)\n", quantile(lat, 0.5), len(lat))
	if q, ok := tailLevel(len(lat)); ok && q > 0.5 {
		name := fmt.Sprintf("p%s_ms", strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", 100*q), "0"), "."))
		extra[name] = metric{quantile(lat, q), "ms"}
		fmt.Fprintf(report, "%-12s = %.4f ms (n=%d, %d beyond)\n", name, quantile(lat, q), len(lat), beyond(len(lat), q))
	} else {
		fmt.Fprintf(report, "p99_ms       : not reported (n=%d; needs at least ten samples beyond it)\n", len(lat))
	}
	failed := w.count(func(o op) bool { return o.failed })
	extra["failed_frac"] = metric{float64(failed) / float64(max(len(w.ops), 1)), "fraction"}
	fmt.Fprintf(report, "failed_frac  = %.6f (%d/%d)\n", extra["failed_frac"].Value, failed, len(w.ops))
	if n := w.insts(); n > 0 {
		extra["minst_per_s"] = metric{float64(n) / 1e6 / w.secs(), "Minst/s"}
		fmt.Fprintf(report, "minst_per_s  = %.4f Minst/s (%d timed instructions)\n", extra["minst_per_s"].Value, n)
	}
}

// queryOps are the ops whose latency is reported one by one.
var queryOps = []engine.Op{
	engine.OpBreakdown, engine.OpCost, engine.OpExecTime, engine.OpFull,
	engine.OpICost, engine.OpMatrix, engine.OpSensitivity, engine.OpSlack,
}

// queryP50s is the median client round trip, in µs, of each op's
// first-time queries, and of all repeated queries together. An op the
// window never asked reads 0.
func (w *timedWindow) queryP50s(report io.Writer) map[string]metric {
	lat := map[string][]float64{}
	for _, o := range w.ops {
		for i, d := range o.lat {
			k := string(o.kinds[i])
			if o.repeat {
				k = "repeat"
			}
			lat[k] = append(lat[k], float64(d.Nanoseconds())/1e3)
		}
	}
	out := map[string]metric{}
	for _, op := range append(queryOps, "repeat") {
		name, xs := "query."+string(op)+".p50_us", lat[string(op)]
		out[name] = metric{median(xs), "us"}
		fmt.Fprintf(report, "%-26s = %.4f us (n=%d)\n", name, out[name].Value, len(xs))
	}
	return out
}

func run(ctx context.Context, cfg *config, stdout io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Provenance: provenance(),
		Metrics:    map[string]metric{}, Reported: map[string]metric{}, Checks: map[string]any{},
	}
	fmt.Fprintf(stdout, "icostbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	pj, _ := json.Marshal(res.Provenance)
	fmt.Fprintf(stdout, "provenance: %s\n", pj)

	// Set up once: a second setup in this process would find its
	// programs in workload.Cached and so skip part of a cold start.
	t0 := time.Now()
	e, err := w.setup(ctx)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	windows := []*timedWindow{drive(ctx, w, e, dur)}
	rss := maxRSSMiB()
	e.close()
	var spans []span
	if cfg.trace {
		// The traced window replays the same inputs on a fresh service, so
		// the two windows differ only in tracing.
		if w, err = newWorkload(cfg); err != nil {
			return nil, err
		}
		if e, err = w.setup(ctx); err != nil {
			return nil, err
		}
		t := newTracer()
		e.tracer.Store(t)
		windows = append(windows, drive(ctx, w, e, dur))
		e.tracer.Store(nil)
		e.close()
		spans = t.all()
	}
	untraced, last := windows[0], windows[len(windows)-1]
	res.Inputs = w.inputs(untraced)
	ij, _ := json.Marshal(res.Inputs)
	fmt.Fprintf(stdout, "inputs: %s\n", ij)

	// Workload-shape checks, then the output check on the kept answers.
	var shape []string
	for _, win := range windows {
		shape = append(shape, w.shape(win)...)
	}
	var ops []*op
	for _, win := range windows {
		for i := range win.ops {
			ops = append(ops, &win.ops[i])
		}
	}
	if cfg.tamper != nil {
		for _, o := range ops {
			for i := range o.answers {
				cfg.tamper(&o.answers[i])
			}
		}
	}
	checked, mismatches, err := checkOps(ctx, ops)
	if err != nil {
		return nil, err
	}
	var firstErr string
	for _, o := range ops {
		res.Attempted++
		if o.failed {
			res.Failed++
		}
		if firstErr == "" {
			firstErr = o.err
		}
	}
	res.Checks = map[string]any{"answers_checked": checked, "mismatches": mismatches, "shape": shape, "first_error": firstErr}
	res.Correct = res.Failed == 0 && len(shape) == 0 && checked > 0
	fmt.Fprintf(stdout, "checks: %d answers recomputed, %d mismatches; %d shape violations\n", checked, len(mismatches), len(shape))
	for _, m := range append(append([]string(nil), mismatches...), shape...) {
		fmt.Fprintf(stdout, "  FAIL %s\n", m)
	}
	if firstErr != "" {
		fmt.Fprintf(stdout, "  first failed operation: %s\n", firstErr)
	}

	fmt.Fprintf(stdout, "setup_s      = %.4f s\n", setupS)
	e2e := map[string]metric{"setup_s": {setupS, "s"}, "max_rss_mib": {rss, "MiB"}}
	untraced.endToEnd(e2e, res.Reported, stdout)
	fmt.Fprintf(stdout, "max_rss_mib  = %.4f MiB\n", rss)
	for k, v := range e2e {
		res.Reported[k] = v
	}
	fmt.Fprintln(stdout, "median round trip by op (first-time queries; repeats together):")
	byOp := untraced.queryP50s(stdout)
	for k, v := range byOp {
		res.Reported[k] = v
	}
	if !cfg.trace {
		res.Metrics = e2e
	} else {
		fmt.Fprintln(stdout, "traced window:")
		tr := map[string]metric{}
		last.endToEnd(tr, map[string]metric{}, stdout)
		pl, err := perLayer(ctx, w, last, spans, res, stdout)
		if err != nil {
			return nil, err
		}
		for k, v := range byOp {
			pl[k] = v
		}
		pl["trace.overhead_p50_ms"] = metric{tr["p50_ms"].Value - e2e["p50_ms"].Value, "ms"}
		pl["trace.overhead_ops_pct"] = metric{100 * (e2e["ops_per_s"].Value - tr["ops_per_s"].Value) / e2e["ops_per_s"].Value, "%"}
		fmt.Fprintf(stdout, "tracing overhead: p50 %+.4f ms, throughput %+.2f%% lower than untraced\n",
			pl["trace.overhead_p50_ms"].Value, pl["trace.overhead_ops_pct"].Value)
		names := make([]string, 0, len(pl))
		for k := range pl {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stdout, "%-34s = %.6g %s\n", k, pl[k].Value, pl[k].Unit)
		}
		res.Metrics = pl
		if err := writeRecord(cfg, "spans", func(f io.Writer) error { return writeSpans(f, spans) }); err != nil {
			fmt.Fprintln(os.Stderr, "icostbench: writing spans:", err)
		}
	}
	for k, v := range res.Metrics {
		res.Reported[k] = v
	}
	if err := writeRecord(cfg, "record", func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "icostbench: writing record:", err)
	}
	return res, nil
}

// perLayer reduces the traced window's spans and counters and times the
// ladder, at the host's GOMAXPROCS and at 1.
func perLayer(ctx context.Context, w workloadSpec, win *timedWindow, spans []span, res *result, out io.Writer) (map[string]metric, error) {
	pl := map[string]metric{}
	st := reduceSpans(spans)
	tree := st.tree()
	fmt.Fprintf(out, "span tree (%d requests; self time of each layer, children sum to their parent):\n%s", st.requests, tree.render())
	for _, l := range layerOrder {
		pl["tree."+l+"_pct"] = metric{100 * float64(st.self[l]) / float64(max(tree.value, 1)), "%"}
	}
	perReq := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(max(st.requests, 1))
	}
	pl["router.self_us"] = metric{perReq(st.self["router"]), "us"}
	pl["router.forward_us"] = metric{perReq(st.total["forward"]), "us"}
	pl["daemon.self_us"] = metric{perReq(st.self["daemon"]), "us"}
	pl["daemon.resp_bytes"] = metric{float64(st.bytes["daemon"]) / float64(max(st.count["daemon"], 1)), "bytes"}

	rd := func(f func(s router.Snapshot) int64) float64 {
		return float64(f(win.after.router) - f(win.before.router))
	}
	pl["router.replications"] = metric{rd(func(s router.Snapshot) int64 { return s.ReplicationsTotal }), "count"}
	pl["router.retries"] = metric{rd(func(s router.Snapshot) int64 { return s.RetriesTotal }), "count"}
	pl["router.backend_errors"] = metric{rd(func(s router.Snapshot) int64 { return s.BackendErrorsTotal }), "count"}

	ed := func(f func(engine.Snapshot) int64) float64 { return float64(engineDelta(win.before, win.after, f)) }
	el := win.elapsedUs()
	pl["engine.elapsed_us_p50"] = metric{quantile(el, 0.5), "us"}
	// The tail is the highest percentile with ten answers beyond it; with
	// too few answers for any, it falls back to the median.
	tail, ok := tailLevel(len(el))
	if !ok {
		tail = 0.5
	}
	pl["engine.elapsed_us_tail"] = metric{quantile(el, tail), "us"}
	fmt.Fprintf(out, "engine.elapsed_us_tail is p%g of %d engine answers\n", 100*tail, len(el))
	hits, misses := ed(func(s engine.Snapshot) int64 { return s.CacheHitsTotal }), ed(func(s engine.Snapshot) int64 { return s.CacheMissesTotal })
	pl["engine.cache_hit_frac"] = metric{hits / max(hits+misses, 1), "fraction"}
	pl["engine.sessions_built"] = metric{ed(func(s engine.Snapshot) int64 { return s.SessionsBuiltTotal }), "count"}
	pl["engine.sessions_evicted"] = metric{ed(func(s engine.Snapshot) int64 { return s.SessionsEvictedTotal }), "count"}
	pl["engine.queue_rejects"] = metric{ed(func(s engine.Snapshot) int64 { return s.QueueRejectsTotal }), "count"}
	pl["engine.errors"] = metric{ed(func(s engine.Snapshot) int64 { return s.ErrorsTotal }), "count"}
	pl["engine.timeouts"] = metric{ed(func(s engine.Snapshot) int64 { return s.QueryTimeoutsTotal }), "count"}
	var buildUs int64
	for _, s := range win.after.engines {
		buildUs = max(buildUs, s.SessionBuildP50us)
	}
	pl["engine.build_ms_p50"] = metric{float64(buildUs) / 1e3, "ms"}
	nops := float64(max(len(win.ops), 1))
	pl["cost.lanes_per_op"] = metric{ed(func(s engine.Snapshot) int64 { return s.BatchLanesTotal }) / nops, "count"}
	pl["cost.batches_per_op"] = metric{ed(func(s engine.Snapshot) int64 { return s.BatchesTotal }) / nops, "count"}
	// The engine's cold-path stage counters move only for whole-graph
	// builds, which only cold-sweep runs in its window; they are printed
	// and recorded, and the ladder's rungs time the same stages on every
	// workload.
	for _, c := range []struct {
		name  string
		field func(engine.Snapshot) int64
	}{
		{"workload.gen_s", func(s engine.Snapshot) int64 { return s.ColdGenNS }},
		{"workload.gen_stall_s", func(s engine.Snapshot) int64 { return s.ColdGenStallNS }},
		{"ooo.sim_s", func(s engine.Snapshot) int64 { return s.ColdSimNS }},
		{"ooo.sim_stall_s", func(s engine.Snapshot) int64 { return s.ColdSimStallNS }},
	} {
		res.Reported[c.name] = metric{ed(c.field) / 1e9, "s"}
		fmt.Fprintf(out, "%-34s = %.6g s (engine counter, traced window)\n", c.name, res.Reported[c.name].Value)
	}
	var peak int64
	windows := 0
	for _, o := range win.ops {
		peak, windows = max(peak, o.peakBytes), max(windows, o.windows)
	}
	pl["window.peak_bytes"] = metric{float64(peak), "bytes"}
	pl["window.windows"] = metric{float64(windows), "count"}

	// The ladder, at the host's GOMAXPROCS (reported) and at 1 (recorded).
	res.Ladder = map[string]ladder{}
	host := runtime.GOMAXPROCS(0)
	for _, procs := range []int{host, 1} {
		prev := runtime.GOMAXPROCS(procs)
		l, err := runLadder(ctx, w.specs(), ladderReps)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, fmt.Errorf("ladder at GOMAXPROCS=%d: %w", procs, err)
		}
		key := fmt.Sprintf("gomaxprocs=%d", procs)
		res.Ladder[key] = l
		lj, _ := json.Marshal(l)
		fmt.Fprintf(out, "ladder (%s, %d specs): %s\n", key, len(w.specs()), lj)
		if procs == host {
			for k, v := range l {
				pl[k] = metric{v, rungUnit(k)}
			}
		}
	}
	return pl, nil
}

// rungUnit reads a ladder rung's unit off its name.
func rungUnit(name string) string {
	if strings.HasSuffix(name, "_us") {
		return "us"
	}
	return "ns"
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance describes the toolchain, host and source of a run.
func provenance() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
	}
	return map[string]any{
		"go": goVersion, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpu, "commit": commit(),
	}
}

// commit reads the checked-out commit from .git in the working
// directory; a source tree without one reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// writeRecord writes one artifact of the run under cfg.records.
func writeRecord(cfg *config, kind string, write func(io.Writer) error) error {
	if cfg.records == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.records, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%s.json", cfg.workload, cfg.seed, cfg.trace, kind)
	f, err := os.Create(filepath.Join(cfg.records, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
