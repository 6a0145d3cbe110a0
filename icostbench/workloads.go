package main

// The three workloads. Each is a closed loop: a connection sends its
// next operation only after the previous one is answered. Inputs are a
// pure function of the seed; the service sees only the generated
// requests.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/router"
	"icost/internal/workload"
)

// workloadSpec is one workload's inputs and its service shape.
type workloadSpec interface {
	conns() int
	// setup starts a fresh service and readies it for the timed window.
	setup(ctx context.Context) (*env, error)
	// op runs connection conn's next operation.
	op(ctx context.Context, e *env, conn int) op
	// shape lists violations of the workload's designed shape.
	shape(w *timedWindow) []string
	// inputs describes the operations a window ran.
	inputs(w *timedWindow) map[string]any
	// specs are the session specs the ladder times.
	specs() []engine.SessionSpec
}

// op is one timed operation: a query (warm-serve) or a study.
type op struct {
	start, end time.Time
	failed     bool
	err        string
	repeat     bool  // warm-serve: repeats an earlier request
	insts      int64 // timed instructions studied
	kinds      []engine.Op
	lanes      int             // sensitivity lanes asked for (categories x α points)
	lat        []time.Duration // client round trip of each answered query, in kinds order
	elapsed    []time.Duration
	windows    int
	peakBytes  int64
	answers    []answer // kept only for sampled operations
}

// answer is one response kept for the output check.
type answer struct {
	q   engine.Query
	raw []byte
}

// reply is the part of a /query response every operation reads.
type reply struct {
	Elapsed   time.Duration `json:"elapsed_ns"`
	Windows   int           `json:"windows"`
	PeakBytes int64         `json:"peak_bytes"`
	Error     string        `json:"error"`
}

// ask posts q to base's /query and decodes the reply. A non-200
// status, a transport error and an undecodable body are failures.
func (e *env) ask(ctx context.Context, base string, q engine.Query) (reply, []byte, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return reply{}, nil, err
	}
	status, raw, id, err := e.post(ctx, base+"/query", body)
	if err != nil {
		return reply{}, nil, fmt.Errorf("%s: %w", q.Op, err)
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, raw, fmt.Errorf("%s: decoding response: %w", q.Op, err)
	}
	if status != 200 {
		return r, raw, fmt.Errorf("%s: HTTP %d: %s", q.Op, status, r.Error)
	}
	if t := e.tracer.Load(); t != nil && id != "" {
		t.add(span{Req: id, Layer: "engine", End: r.Elapsed})
	}
	return r, raw, nil
}

// operation asks qs in order on one connection, timed as one operation.
func (e *env) operation(ctx context.Context, qs []engine.Query, insts int64, keep bool) op {
	o := op{start: time.Now(), insts: insts}
	for _, q := range qs {
		t0 := time.Now()
		r, raw, err := e.ask(ctx, e.target, q)
		o.kinds = append(o.kinds, q.Op)
		if err != nil {
			o.failed, o.err = true, err.Error()
			break
		}
		o.lat = append(o.lat, time.Since(t0))
		o.elapsed = append(o.elapsed, r.Elapsed)
		o.windows, o.peakBytes = max(o.windows, r.Windows), max(o.peakBytes, r.PeakBytes)
		if q.Op == engine.OpSensitivity {
			o.lanes = len(q.Cats) * len(q.Alphas)
		}
		if keep {
			o.answers = append(o.answers, answer{q: q, raw: raw})
		}
	}
	o.end = time.Now()
	return o
}

// parallel runs f(i) for i in [0,n) on at most two goroutines — the
// benchmark never opens more connections than the host has cores — and
// returns the first error.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := f(i); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// session returns a session spec of cfg's size (zero sizes take the
// engine defaults, 30k timed instructions after 30k warmup).
func (c *config) session(bench string, seed uint64) engine.SessionSpec {
	return engine.SessionSpec{Bench: bench, Seed: seed, TraceLen: c.traceLen, Warmup: c.warmup}
}

func (c *config) timedInsts() int64 {
	if c.traceLen > 0 {
		return int64(c.traceLen)
	}
	return 30000
}

// ---- warm-serve ----

// alphaPool is the α grid warm-serve's sensitivity requests draw
// from; setup evaluates all of it, so no request walks the graph.
var alphaPool = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}

const (
	warmSessions   = 8           // the engine's default MaxSessions
	warmRepeat     = 0.25        // share of requests that repeat an earlier one
	warmRecent     = 64          // repeats draw from this many recent requests
	warmHedgeAfter = time.Second // far above any warm answer, so no hedge fires unless a shard stalls
	// warmCacheBytes bounds each shard's result cache. Setup fills it to
	// the bound, so the timed window runs at steady-state eviction; at
	// the engine's 64 MiB default the cache would still be filling at
	// the window's end, and throughput falls as it fills.
	warmCacheBytes = 1 << 20
	// warmFill is how many requests per connection setup sends to fill
	// the caches: about twice what a 1 MiB cache takes when the ring
	// splits the sessions evenly between the shards.
	warmFill       = 4096
	warmSampleStep = 101 // every 101st request of a connection is checked
	warmSampleMax  = 24  // per connection

	stationarityMinSecs = 10
)

// warmOps weights first-time requests, in percent. The weights are an
// assumption, not a measured or published traffic mix: no record of
// client traffic exists. They are chosen so that the window never runs
// out of first-time requests. Each service answers one timed window,
// so first-time requests only need to be new to it. Ops with small key
// spaces (cost, exectime, icost, matrix: at most 255 per session, 1020
// per connection) get 1% each, so that at ~3.5k requests/s per
// connection none runs out of unasked requests in a 20 s window; if one
// does, the redraw simply picks another op. Because the blend is
// guessed, every run also reports each op's median latency on its own.
var warmOps = []struct {
	op     engine.Op
	weight int
}{
	{engine.OpSensitivity, 40}, {engine.OpBreakdown, 35}, {engine.OpFull, 21},
	{engine.OpICost, 1}, {engine.OpMatrix, 1}, {engine.OpCost, 1}, {engine.OpExecTime, 1},
}

type warmServe struct {
	cfg      *config
	sessions []engine.SessionSpec
	gens     []*warmGen
}

// warmGen is one connection's request stream. Connection c owns
// sessions c, c+2, ..., so the two streams never ask the same request.
type warmGen struct {
	rng    *rand.Rand
	own    []engine.SessionSpec
	seen   map[string]bool
	recent []engine.Query
	n      int // requests sent in the timed window
	slack  int // slack repeats sent
}

func newWarmServe(cfg *config) *warmServe {
	rng := rand.New(rand.NewPCG(cfg.seed, 0))
	names := workload.Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	w := &warmServe{cfg: cfg}
	for _, b := range names[:warmSessions] {
		w.sessions = append(w.sessions, cfg.session(b, 0))
	}
	return w
}

// resetStreams starts both connections' request streams from the top,
// so every service set up for a run sees the same requests.
func (w *warmServe) resetStreams() {
	w.gens = nil
	for c := 0; c < 2; c++ {
		g := &warmGen{rng: rand.New(rand.NewPCG(w.cfg.seed, uint64(c)+1)), seen: map[string]bool{}}
		for i := c; i < len(w.sessions); i += 2 {
			g.own = append(g.own, w.sessions[i])
		}
		w.gens = append(w.gens, g)
	}
}

func (w *warmServe) conns() int                  { return 2 }
func (w *warmServe) specs() []engine.SessionSpec { return w.sessions }

func (w *warmServe) setup(ctx context.Context) (*env, error) {
	w.resetStreams()
	e, err := startEnv(2, engine.Config{CacheBytes: warmCacheBytes}, &router.Config{HedgeAfter: warmHedgeAfter})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, fmt.Errorf("warm-serve setup: %w", err)
	}
	// Build each session on its home shard through the router; the
	// router replicates a session to the other shard once it has served
	// it three times (its default hot threshold).
	err = parallel(len(w.sessions), func(i int) error {
		for k := 0; k < 3; k++ {
			if _, _, err := e.ask(ctx, e.target, engine.Query{Session: w.sessions[i], Op: engine.OpExecTime}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	rctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := e.waitReplicated(rctx, len(w.sessions)); err != nil {
		return fail(err)
	}
	// Fill every shard's analyzer memo: all 256 category unions and
	// every (category, α) sample of the pool. The slack answers are
	// what warm-serve's slack repeats hit.
	fills := func(s engine.SessionSpec) []engine.Query {
		return []engine.Query{
			{Session: s, Op: engine.OpFull, Cats: depgraph.FlagNames()},
			{Session: s, Op: engine.OpSensitivity, Cats: depgraph.FlagNames(), Alphas: alphaPool},
			{Session: s, Op: engine.OpSlack},
		}
	}
	err = parallel(len(e.shards)*len(w.sessions), func(i int) error {
		url := e.shards[i/len(w.sessions)].url
		for _, q := range fills(w.sessions[i%len(w.sessions)]) {
			if _, _, err := e.ask(ctx, url, q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if err := w.fill(ctx, e); err != nil {
		return fail(err)
	}
	return e, nil
}

// fill sends warmFill requests from each connection's own stream, which
// brings the result caches to their byte bound.
func (w *warmServe) fill(ctx context.Context, e *env) error {
	return parallel(len(w.gens), func(c int) error {
		for k := 0; k < warmFill; k++ {
			q, _, err := w.gens[c].next()
			if err != nil {
				return err
			}
			if _, _, err := e.ask(ctx, e.target, q); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *warmServe) op(ctx context.Context, e *env, conn int) op {
	g := w.gens[conn]
	q, repeat, err := g.next()
	if err != nil {
		return op{start: time.Now(), end: time.Now(), failed: true, err: err.Error()}
	}
	keep := g.n%warmSampleStep == 0 && g.n/warmSampleStep < warmSampleMax
	g.n++
	o := e.operation(ctx, []engine.Query{q}, 0, keep)
	o.repeat = repeat
	return o
}

// next draws the connection's next request: with probability
// warmRepeat a repeat (one in eight of them a session's slack answer
// setup cached, the rest one of the last warmRecent requests), and
// otherwise a request never asked before, answered from the warm memo.
func (g *warmGen) next() (engine.Query, bool, error) {
	if len(g.recent) > 0 && g.rng.Float64() < warmRepeat {
		if g.rng.IntN(8) == 0 {
			// Round robin, so each cached slack answer is touched often
			// enough that the 1 MiB cache never evicts it.
			g.slack++
			return engine.Query{Session: g.own[g.slack%len(g.own)], Op: engine.OpSlack}, true, nil
		}
		return g.recent[g.rng.IntN(len(g.recent))], true, nil
	}
	for try := 0; try < 1000; try++ {
		q := g.draw()
		k := queryKey(q)
		if g.seen[k] {
			continue
		}
		g.seen[k] = true
		if len(g.recent) == warmRecent {
			copy(g.recent, g.recent[1:])
			g.recent = g.recent[:warmRecent-1]
		}
		g.recent = append(g.recent, q)
		return q, false, nil
	}
	return engine.Query{}, false, fmt.Errorf("warm-serve: no unasked request left after 1000 draws")
}

// draw builds one request in the engine's canonical form: category
// lists the engine sorts are sorted, so equal requests have equal keys.
func (g *warmGen) draw() engine.Query {
	total := 0
	for _, o := range warmOps {
		total += o.weight
	}
	pick := g.rng.IntN(total)
	var kind engine.Op
	for _, o := range warmOps {
		if pick < o.weight {
			kind = o.op
			break
		}
		pick -= o.weight
	}
	q := engine.Query{Session: g.own[g.rng.IntN(len(g.own))], Op: kind}
	switch kind {
	case engine.OpSensitivity:
		q.Cats = g.cats(1, 4, true)
		for _, i := range g.rng.Perm(len(alphaPool))[:2+g.rng.IntN(4)] {
			q.Alphas = append(q.Alphas, alphaPool[i])
		}
		sort.Float64s(q.Alphas)
	case engine.OpBreakdown:
		q.Focus = depgraph.FlagNames()[g.rng.IntN(depgraph.NumFlags)]
		q.Cats = g.cats(2, 6, false)
	case engine.OpFull:
		q.Cats = g.cats(2, 4, false)
	case engine.OpICost, engine.OpMatrix:
		q.Cats = g.cats(2, depgraph.NumFlags, true)
	case engine.OpCost, engine.OpExecTime:
		q.Cats = g.cats(1, depgraph.NumFlags, true)
	}
	return q
}

// cats draws lo..hi distinct categories, sorted by name if canonical.
func (g *warmGen) cats(lo, hi int, canonical bool) []string {
	names := depgraph.FlagNames()
	var out []string
	for _, i := range g.rng.Perm(len(names))[:lo+g.rng.IntN(hi-lo+1)] {
		out = append(out, names[i])
	}
	if canonical {
		sort.Strings(out)
	}
	return out
}

// queryKey identifies a canonical request the way the engine's result
// cache does.
func queryKey(q engine.Query) string {
	return fmt.Sprintf("%s|%s|%s|%s|%v", q.Op, q.Session.Bench, strings.Join(q.Cats, ","), q.Focus, q.Alphas)
}

func (w *warmServe) shape(win *timedWindow) []string {
	var bad []string
	// Halves of a window shorter than stationarityMinSecs are too short
	// to average out scheduling noise, so only longer windows are held
	// to the bound.
	if r1, r2 := win.halfRates(); win.secs() >= stationarityMinSecs && (r1 <= 0 || r2 <= 0 || math.Abs(r1-r2)/r1 > opsBound) {
		bad = append(bad, fmt.Sprintf("ops_per_s first half %.1f vs second half %.1f differ by more than %.0f%%", r1, r2, 100*opsBound))
	}
	hits := engineDelta(win.before, win.after, func(s engine.Snapshot) int64 { return s.CacheHitsTotal })
	if repeats := int64(win.count(func(o op) bool { return o.repeat })); hits != repeats {
		bad = append(bad, fmt.Sprintf("engine cache hits %d != repeated requests %d (router hedges launched: %d)",
			hits, repeats, win.after.router.HedgesLaunchedTotal-win.before.router.HedgesLaunchedTotal))
	}
	if n := engineDelta(win.before, win.after, func(s engine.Snapshot) int64 { return s.SessionsBuiltTotal }); n != 0 {
		bad = append(bad, fmt.Sprintf("%d sessions built in the timed window, want 0", n))
	}
	if n := engineDelta(win.before, win.after, func(s engine.Snapshot) int64 { return s.BatchLanesTotal }); n != 0 {
		bad = append(bad, fmt.Sprintf("%d batch lanes walked in the timed window, want 0", n))
	}
	return bad
}

func (w *warmServe) inputs(win *timedWindow) map[string]any {
	lanes, sens := 0, 0
	for _, o := range win.ops {
		if !o.repeat && o.lanes > 0 {
			lanes += o.lanes
			sens++
		}
	}
	benches := make([]string, len(w.sessions))
	for i, s := range w.sessions {
		benches[i] = s.Bench
	}
	in := map[string]any{
		"op_mix":                        win.opMix(),
		"repeat_share":                  float64(win.count(func(o op) bool { return o.repeat })) / float64(max(len(win.ops), 1)),
		"sessions":                      benches,
		"trace_len":                     w.cfg.timedInsts(),
		"lanes_per_sensitivity_request": float64(lanes) / float64(max(sens, 1)),
	}
	return in
}

// ---- cold-sweep ----

// machineVariant is one machine of the paper's experiments.
type machineVariant struct {
	name                          string
	dl1, window, wakeup, recovery int // zero takes the Table 6 default
}

func (v machineVariant) apply(s engine.SessionSpec) engine.SessionSpec {
	s.DL1Latency, s.Window, s.WakeupExtra, s.BranchRecovery = v.dl1, v.window, v.wakeup, v.recovery
	return s
}

// coldVariants are the machines of Tables 4a, 4b and 4c and the
// Figure 3 (dl1 latency x window) grid; the Figure 3 point dl1=4,
// window=64 is Table 4a's machine.
var coldVariants = []machineVariant{
	{name: "table4a", dl1: 4},
	{name: "table4b", wakeup: 1},
	{name: "table4c", recovery: 15},
	{name: "fig3-dl1-1-win64", dl1: 1, window: 64},
	{name: "fig3-dl1-1-win128", dl1: 1, window: 128},
	{name: "fig3-dl1-1-win256", dl1: 1, window: 256},
	{name: "fig3-dl1-4-win128", dl1: 4, window: 128},
	{name: "fig3-dl1-4-win256", dl1: 4, window: 256},
}

const (
	coldSampleStep = 16 // every 16th study is checked
	coldSampleMax  = 12
)

// coldSweep studies sessions no earlier request named. Study i belongs
// to program i/8 — a (bench, seed) pair, benches in a fixed rotation —
// and sweeps that program over all eight machines in a seeded order,
// the way a design-space sweep holds the program and varies the
// machine.
type coldSweep struct {
	cfg  *config
	next atomic.Int64
}

func (w *coldSweep) conns() int { return 2 }

// programSeed is the generation seed of program p; distinct programs
// of one run never share a (bench, seed).
func programSeed(runSeed uint64, p int) uint64 { return runSeed*1_000_003 + uint64(p) + 1000 }

func (w *coldSweep) study(i int) (engine.SessionSpec, string) {
	p := i / len(coldVariants)
	names := workload.Names()
	order := rand.New(rand.NewPCG(w.cfg.seed, uint64(p))).Perm(len(coldVariants))
	v := coldVariants[order[i%len(coldVariants)]]
	return v.apply(w.cfg.session(names[p%len(names)], programSeed(w.cfg.seed, p))), v.name
}

func (w *coldSweep) specs() []engine.SessionSpec {
	a, _ := w.study(0)
	b, _ := w.study(len(coldVariants) + 1)
	return []engine.SessionSpec{a, b}
}

func (w *coldSweep) setup(ctx context.Context) (*env, error) {
	e, err := startEnv(1, engine.Config{}, nil)
	if err != nil {
		return nil, err
	}
	// Sweeping one program outside the run over every machine fills the
	// pools behind a cold build before timing.
	err = parallel(len(coldVariants), func(i int) error {
		s := coldVariants[i].apply(w.cfg.session(workload.Names()[0], 1))
		if o := e.operation(ctx, coldStudy(s), 0, false); o.failed {
			return fmt.Errorf("cold-sweep setup: %s", o.err)
		}
		return nil
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func coldStudy(s engine.SessionSpec) []engine.Query {
	return []engine.Query{
		{Session: s, Op: engine.OpBreakdown},
		{Session: s, Op: engine.OpSensitivity},
		{Session: s, Op: engine.OpSlack},
	}
}

func (w *coldSweep) op(ctx context.Context, e *env, conn int) op {
	i := int(w.next.Add(1) - 1)
	s, _ := w.study(i)
	keep := i%coldSampleStep == 0 && i/coldSampleStep < coldSampleMax
	return e.operation(ctx, coldStudy(s), w.cfg.timedInsts(), keep)
}

func (w *coldSweep) shape(win *timedWindow) []string {
	built := engineDelta(win.before, win.after, func(s engine.Snapshot) int64 { return s.SessionsBuiltTotal })
	if studies := int64(len(win.ops)); built != studies {
		return []string{fmt.Sprintf("%d sessions built for %d studies", built, studies)}
	}
	return nil
}

func (w *coldSweep) inputs(win *timedWindow) map[string]any {
	variants := map[string]int{}
	for i := range win.ops {
		_, v := w.study(i)
		variants[v]++
	}
	// Studies run in order, eight per program, and at most a few programs
	// are live at once, so every study after its program's first finds
	// the program in workload.Cached's 16-entry LRU.
	n := len(win.ops)
	programs := (n + len(coldVariants) - 1) / len(coldVariants)
	return map[string]any{
		"op_mix":                        win.opMix(),
		"repeat_share":                  0.0,
		"machines":                      variants,
		"workload.program_reuse_frac":   float64(n-programs) / float64(max(n, 1)),
		"trace_len":                     w.cfg.timedInsts(),
		"lanes_per_sensitivity_request": float64(depgraph.NumFlags * len(engineDefaultGrid)),
	}
}

// engineDefaultGrid is the engine's default sensitivity grid.
var engineDefaultGrid = []float64{0, 0.25, 0.5, 0.75, 1}

// ---- long-trace ----

// longBenches rotate through long-trace's studies.
var longBenches = []string{"gcc", "gzip", "mcf", "parser"}

type longTrace struct {
	cfg  *config
	next int
}

func (w *longTrace) conns() int { return 1 }

// study i's queries: a windowed session of the next benchmark in the
// rotation, its breakdown, then response curves of three seeded
// categories on the default grid.
func (w *longTrace) study(i int) []engine.Query {
	s := w.session(longBenches[i%len(longBenches)], programSeed(w.cfg.seed, i), w.cfg.longLen)
	names := depgraph.FlagNames()
	var cats []string
	for _, k := range rand.New(rand.NewPCG(w.cfg.seed, uint64(i))).Perm(len(names))[:3] {
		cats = append(cats, names[k])
	}
	sort.Strings(cats)
	return longQueries(s, cats)
}

func (w *longTrace) session(bench string, seed uint64, traceLen int) engine.SessionSpec {
	return engine.SessionSpec{Bench: bench, Seed: seed, TraceLen: traceLen, Warmup: w.cfg.warmup, WindowInsts: w.cfg.longWindow}
}

func longQueries(s engine.SessionSpec, cats []string) []engine.Query {
	return []engine.Query{
		{Session: s, Op: engine.OpBreakdown},
		{Session: s, Op: engine.OpSensitivity, Cats: cats, Alphas: engineDefaultGrid},
	}
}

func (w *longTrace) specs() []engine.SessionSpec { return []engine.SessionSpec{w.study(0)[0].Session} }

func (w *longTrace) setup(ctx context.Context) (*env, error) {
	e, err := startEnv(1, engine.Config{}, nil)
	if err != nil {
		return nil, err
	}
	// One short windowed study outside the rotation fills the pools.
	warm := longQueries(w.session(longBenches[0], 1, w.cfg.longLen/8), depgraph.FlagNames()[:3])
	if o := e.operation(ctx, warm, 0, false); o.failed {
		e.close()
		return nil, fmt.Errorf("long-trace setup: %s", o.err)
	}
	return e, nil
}

func (w *longTrace) op(ctx context.Context, e *env, conn int) op {
	i := w.next
	w.next++
	return e.operation(ctx, w.study(i), int64(w.cfg.longLen), i == 0)
}

func (w *longTrace) shape(win *timedWindow) []string {
	built := engineDelta(win.before, win.after, func(s engine.Snapshot) int64 { return s.WindowedBuildsTotal })
	if studies := int64(len(win.ops)); built != studies {
		return []string{fmt.Sprintf("%d windowed builds for %d studies", built, studies)}
	}
	return nil
}

func (w *longTrace) inputs(win *timedWindow) map[string]any {
	return map[string]any{
		"op_mix":                        win.opMix(),
		"repeat_share":                  0.0,
		"benches":                       longBenches,
		"trace_len":                     w.cfg.longLen,
		"window_insts":                  w.cfg.longWindow,
		"workload.program_reuse_frac":   0.0,
		"lanes_per_build":               1 << depgraph.NumFlags,
		"lanes_per_sensitivity_request": 3 * len(engineDefaultGrid),
	}
}
