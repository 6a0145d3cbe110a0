package fleet

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"icost/internal/breakdown"
	"icost/internal/depgraph"
	"icost/internal/faultinject"
	"icost/internal/isa"
	"icost/internal/ooo"
	"icost/internal/profiler"
	"icost/internal/window"
	"icost/internal/workload"
)

// Config sizes the aggregator. Zero fields take defaults.
type Config struct {
	// MaxBytes bounds the retained sample pool across all aggregates
	// (default 64 MiB). When an ingest pushes the fleet past the
	// budget, whole aggregates are evicted coldest-first — the lossy
	// half of the paper's lossy-collection contract.
	MaxBytes int64
	// Profiler parameterizes fragment reconstruction and analysis
	// over merged pools (default profiler.DefaultConfig()). Fragments
	// is the per-query default; a query may override it.
	Profiler profiler.Config
	// Machine is the timing configuration of the machines the fleet
	// runs (default ooo.DefaultConfig(), the paper's Table 6 box) —
	// reconstruction needs the same edge latencies the hosts had.
	Machine ooo.Config
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	zero := profiler.Config{}
	if c.Profiler == zero {
		c.Profiler = profiler.DefaultConfig()
	}
	if c.Machine.Graph.Window == 0 {
		c.Machine = ooo.DefaultConfig()
	}
	return c
}

// aggregate is one (binary, seed, group) merged sample pool plus the
// memoized analysis results over it. Its two locks slot into the
// fleet-wide order documented on Aggregator: mu is acquired after
// Aggregator.mu and before memoMu, and memoMu is the innermost lock
// in the package.
type aggregate struct {
	key Key

	// mu guards the pool: ingest merges hold it exclusively, queries
	// analyze under read locks (profiler reconstruction only reads).
	// Order: after Aggregator.mu (eviction flips evicted while the
	// LRU books are held), before memoMu (estimate memoizes under the
	// pool's read lock).
	mu      sync.RWMutex
	samples *profiler.Samples
	hosts   map[string]struct{}
	batches int64
	// evicted marks an aggregate the LRU has dropped; an in-flight
	// merge that finds it set must restart against a fresh aggregate
	// rather than commit into an orphan the books can no longer see.
	evicted bool
	// gen counts committed merges; a memoized estimate is valid only
	// for the generation it was computed against.
	gen uint64

	// bytes is the retained size of the pool. Unlike the fields above
	// it is guarded by the Aggregator's mu, not the aggregate's: it
	// must move in lockstep with LRU membership and the fleet-wide
	// byte total, or a concurrent eviction could strand bytes in the
	// accounting that no eviction pass can ever reclaim.
	bytes int64

	// memoMu guards memo and cal. Innermost lock: estimate takes it
	// while holding mu for read, and nothing is ever acquired under
	// it — so a slow analysis pipeline runs between memoMu sections,
	// never inside one.
	memoMu sync.Mutex
	memo   map[string]*memoEntry
	// cal memoizes calibrate results. Unlike memo it is
	// generation-independent: the windowed ground truth depends only
	// on (binary, seed, machine, trace shape), never on the pool.
	cal map[string]*calEntry
}

type memoEntry struct {
	gen uint64
	est *profiler.Estimate
}

// calEntry is one memoized windowed ground-truth run.
type calEntry struct {
	pct       map[string]float64
	cycles    int64
	insts     int64
	windows   int
	peakBytes int64
}

// Aggregator is the fleet's online merge + query surface.
//
// Lock order (outermost first, enforced by the lockorder analyzer):
//
//	Aggregator.mu  ->  aggregate.mu  ->  aggregate.memoMu
//
// A goroutine holding a later lock must never acquire an earlier
// one; code that needs two of them in the other direction (ingest's
// commit, query's calibrate path) drops the inner lock first and
// revalidates after reacquiring. The one field guarded out of line
// is aggregate.bytes, which belongs to Aggregator.mu so that byte
// accounting moves in lockstep with LRU membership — see its field
// comment.
type Aggregator struct {
	cfg Config

	// mu guards the aggregate directory: items, ll, bytes, and every
	// aggregate's bytes field. Outermost lock — lookup and eviction
	// acquire aggregate.mu beneath it, never the reverse.
	mu    sync.Mutex
	items map[string]*list.Element // Key.String() -> *aggregate
	ll    *list.List               // front = most recently ingested
	bytes int64

	met metrics
}

// NewAggregator readies an empty aggregator.
func NewAggregator(cfg Config) *Aggregator {
	return &Aggregator{
		cfg:   cfg.withDefaults(),
		items: map[string]*list.Element{},
		ll:    list.New(),
	}
}

// Ingest merges one host's sample batch into its aggregate, taking
// ownership of s. The merge is transactional: a fault or invalid
// batch leaves the aggregate exactly as it was.
func (a *Aggregator) Ingest(ctx context.Context, h Header, s *profiler.Samples) error {
	start := time.Now()
	if err := a.ingest(ctx, h, s); err != nil {
		a.met.ingestErrors.Add(1)
		return err
	}
	a.met.ingestBatches.Add(1)
	a.met.ingestSigs.Add(int64(len(s.Sigs)))
	var details int64
	for _, ds := range s.Details {
		details += int64(len(ds))
	}
	a.met.ingestDetails.Add(details)
	a.met.ingestInsts.Add(int64(s.Insts))
	a.met.ingestLatency.Record(time.Since(start))
	return nil
}

func (a *Aggregator) ingest(ctx context.Context, h Header, s *profiler.Samples) error {
	if err := faultinject.Hit(ctx, faultinject.FleetIngest); err != nil {
		return err
	}
	if err := h.validate(); err != nil {
		return err
	}
	if _, ok := workload.ByName(h.Binary); !ok {
		return errValidation("fleet: unknown binary %q (have %s)",
			h.Binary, strings.Join(workload.Names(), ","))
	}
	if len(s.Sigs) == 0 {
		return errValidation("fleet: batch has no signature samples")
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Stage outside the aggregate's critical state: the byte cost and
	// detail count are pure reads of the incoming batch.
	add := sampleBytes(s)

	// Commit into a live aggregate. An aggregate can be evicted
	// between lookup and lock acquisition; merging into it then would
	// grow an orphan pool, so retry against a fresh one instead.
	var agg *aggregate
	for {
		agg = a.lookup(h.Key(), true)
		agg.mu.Lock()
		if !agg.evicted {
			break
		}
		agg.mu.Unlock()
	}
	// The merge fault point sits after staging, before commit: a
	// fault kills this merge mid-flight and the transactional shape
	// guarantees the aggregate is untouched.
	if err := faultinject.Hit(ctx, faultinject.FleetMerge); err != nil {
		agg.mu.Unlock()
		return err
	}
	if agg.samples == nil {
		agg.samples = &profiler.Samples{Details: map[isa.Addr][]profiler.DetailedSample{}}
	}
	agg.samples.Sigs = append(agg.samples.Sigs, s.Sigs...)
	for pc, ds := range s.Details {
		agg.samples.Details[pc] = append(agg.samples.Details[pc], ds...)
	}
	agg.samples.Insts += s.Insts
	if h.Host != "" {
		agg.hosts[h.Host] = struct{}{}
	}
	agg.batches++
	agg.gen++
	agg.mu.Unlock()

	// Fleet-level byte accounting + eviction, coldest aggregate
	// first. Membership and byte counts move together under a.mu: the
	// batch is accounted only if its aggregate is still in the LRU
	// (an eviction racing the commit above takes the whole pool with
	// it — lossy collection, nothing left to bill), and an evicted
	// aggregate's bytes leave the books in the same critical section
	// that drops it from the list.
	a.mu.Lock()
	if el, ok := a.items[h.Key().String()]; ok && el.Value.(*aggregate) == agg {
		agg.bytes += add
		a.bytes += add
		a.ll.MoveToFront(el)
		for a.bytes > a.cfg.MaxBytes {
			back := a.ll.Back()
			if back == nil {
				break
			}
			ev := back.Value.(*aggregate)
			a.ll.Remove(back)
			delete(a.items, ev.key.String())
			a.bytes -= ev.bytes
			ev.mu.Lock()
			ev.evicted = true
			ev.mu.Unlock()
			a.met.evictions.Add(1)
		}
	}
	a.mu.Unlock()
	return nil
}

// lookup returns the aggregate for key, creating it when create is
// set, and refreshes its LRU recency.
func (a *Aggregator) lookup(key Key, create bool) *aggregate {
	ks := key.String()
	a.mu.Lock()
	defer a.mu.Unlock()
	if el, ok := a.items[ks]; ok {
		a.ll.MoveToFront(el)
		return el.Value.(*aggregate)
	}
	if !create {
		return nil
	}
	agg := &aggregate{
		key:   key,
		hosts: map[string]struct{}{},
		memo:  map[string]*memoEntry{},
		cal:   map[string]*calEntry{},
	}
	a.items[ks] = a.ll.PushFront(agg)
	return agg
}

// sampleBytes estimates the retained size of a batch: slice and map
// storage the merged pool keeps, not the encoded wire size.
func sampleBytes(s *profiler.Samples) int64 {
	const (
		sigOverhead    = 32 // SignatureSample header + slice header
		detailOverhead = 96 // DetailedSample struct + map bucket share
	)
	b := int64(0)
	for i := range s.Sigs {
		b += sigOverhead + int64(len(s.Sigs[i].Bits))
	}
	for _, ds := range s.Details {
		for i := range ds {
			b += detailOverhead + int64(len(ds[i].Before)+len(ds[i].After))
		}
	}
	return b
}

// Query answers one fleet query against an aggregate profile.
func (a *Aggregator) Query(ctx context.Context, q Query) (*Response, error) {
	start := time.Now()
	resp, err := a.query(ctx, q)
	if err != nil {
		a.met.queryErrors.Add(1)
		return nil, err
	}
	a.met.queries.Add(1)
	resp.Elapsed = time.Since(start)
	a.met.queryLatency.Record(resp.Elapsed)
	return resp, nil
}

func (a *Aggregator) query(ctx context.Context, q Query) (*Response, error) {
	q, focus, cats, err := q.normalize(a.cfg.Profiler.Fragments)
	if err != nil {
		return nil, err
	}
	agg := a.lookup(q.Key(), false)
	if agg == nil {
		return nil, &NotFoundError{Key: q.Key()}
	}

	// The binary: reconstruction walks PCs through the program text,
	// so the service regenerates the same binary the hosts ran.
	w, err := workload.Cached(q.Binary, q.Seed)
	if err != nil {
		return nil, err
	}

	agg.mu.RLock()
	if agg.samples == nil || len(agg.samples.Sigs) == 0 {
		agg.mu.RUnlock()
		return nil, &NotFoundError{Key: q.Key()}
	}
	gen := agg.gen
	resp := &Response{
		Op:           q.Op,
		Key:          q.Key().String(),
		Binary:       q.Binary,
		Group:        q.Group,
		Generation:   gen,
		Hosts:        len(agg.hosts),
		Batches:      agg.batches,
		SampledInsts: agg.samples.Insts,
		Sigs:         len(agg.samples.Sigs),
	}
	if q.Op == OpCalibrate {
		// Calibration never reads the pool — drop the read lock so the
		// (comparatively long) windowed ground-truth run cannot block
		// merges the way fragment reconstruction does.
		agg.mu.RUnlock()
		if err := a.calibrate(ctx, agg, q, cats, resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
	defer agg.mu.RUnlock()

	est, memoized, err := a.estimate(ctx, agg, gen, q, focus, cats, w)
	if err != nil {
		return nil, err
	}
	resp.Memoized = memoized
	resp.Fragments = est.Fragments
	resp.Attempts = est.Attempts
	resp.MatchedFrac = est.MatchedFrac
	switch q.Op {
	case OpCost:
		resp.Value = est.Pct[q.Cats[0]]
		resp.StdErr = est.StdErr[q.Cats[0]]
	case OpICost:
		label := q.Cats[0] + "+" + q.Cats[1]
		resp.Value = est.Pct[label]
		resp.StdErr = est.StdErr[label]
		resp.Interaction = classifyPct(resp.Value)
	case OpBreakdown:
		resp.Pct = est.Pct
		resp.StdErrs = est.StdErr
	}
	return resp, nil
}

// estimate returns the memoized estimate for (generation, focus,
// cats, fragments), running the profiler pipeline over the merged
// pool on a miss. Runs under the aggregate's read lock, so merges
// wait while fragments reconstruct — and the pool cannot shift under
// the profiler.
func (a *Aggregator) estimate(ctx context.Context, agg *aggregate, gen uint64, q Query,
	focus breakdown.Category, cats []breakdown.Category, w *workload.Workload) (*profiler.Estimate, bool, error) {
	ekey := q.estimateKey()
	agg.memoMu.Lock()
	if e, ok := agg.memo[ekey]; ok && e.gen == gen {
		agg.memoMu.Unlock()
		a.met.memoHits.Add(1)
		return e.est, true, nil
	}
	agg.memoMu.Unlock()

	pcfg := a.cfg.Profiler
	pcfg.Fragments = q.Fragments
	p, err := profiler.New(w.Prog, a.cfg.Machine.Graph, agg.samples, pcfg)
	if err != nil {
		return nil, false, err
	}
	est, err := p.AnalyzeCtx(ctx, focus, cats)
	if err != nil {
		return nil, false, err
	}
	a.met.estimates.Add(1)
	agg.memoMu.Lock()
	agg.memo[ekey] = &memoEntry{gen: gen, est: est}
	agg.memoMu.Unlock()
	return est, false, nil
}

// calibrate answers an OpCalibrate query: one windowed ground-truth
// pass folds the base lane plus every requested category's single
// idealization, and the exact cost percentages land in resp.Pct —
// what the sampled fleet estimates for the same categories should
// converge to. Results are memoized per (cats, trace shape),
// generation-independent: the ground truth reads the binary, never
// the sample pool. Runs outside the aggregate's locks.
func (a *Aggregator) calibrate(ctx context.Context, agg *aggregate, q Query,
	cats []breakdown.Category, resp *Response) error {
	ckey := q.calibrateKey()
	agg.memoMu.Lock()
	e, ok := agg.cal[ckey]
	agg.memoMu.Unlock()
	if ok {
		a.met.memoHits.Add(1)
		resp.Memoized = true
		e.fill(resp)
		return nil
	}

	lanes := make([]depgraph.Flags, 0, len(cats)+1)
	lanes = append(lanes, 0)
	for _, c := range cats {
		lanes = append(lanes, c.Flags)
	}
	wres, err := window.Analyze(ctx, window.Request{
		Bench:       q.Binary,
		Seed:        q.Seed,
		TraceLen:    q.TraceLen,
		Warmup:      q.Warmup,
		WindowInsts: q.WindowInsts,
		Sim:         a.cfg.Machine,
	}, lanes)
	if err != nil {
		return err
	}
	pct := make(map[string]float64, len(cats))
	base := float64(wres.Times[0])
	for k, c := range cats {
		pct[c.Name] = float64(wres.Times[0]-wres.Times[k+1]) / base * 100
	}
	e = &calEntry{pct: pct, cycles: wres.Cycles, insts: wres.Insts,
		windows: wres.Windows, peakBytes: wres.PeakBytes}
	a.met.calibrations.Add(1)
	agg.memoMu.Lock()
	agg.cal[ckey] = e
	agg.memoMu.Unlock()
	e.fill(resp)
	return nil
}

func (e *calEntry) fill(resp *Response) {
	resp.Pct = e.pct
	resp.BaseCycles = e.cycles
	resp.AnalyzedInsts = e.insts
	resp.Windows = e.windows
	resp.PeakBytes = e.peakBytes
}

// classifyPct maps an interaction-cost percentage onto the paper's
// trichotomy (§2.2). The estimate is sampled, so a small epsilon
// around zero reads as independent rather than over-interpreting
// noise.
func classifyPct(pct float64) string {
	const eps = 0.05
	switch {
	case pct > eps:
		return "serial"
	case pct < -eps:
		return "parallel"
	default:
		return "independent"
	}
}

// Len reports how many aggregates are live.
func (a *Aggregator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ll.Len()
}

// Bytes reports the retained sample-pool bytes across aggregates.
func (a *Aggregator) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// Op names a fleet query kind. The fleet surface is the profiler's:
// estimates are percentages of execution time with sampling error
// bars, not exact cycle counts — exactly what §5 hardware can know.
type Op string

const (
	// OpCost: one category's cost as percent of execution time.
	OpCost Op = "cost"
	// OpICost: the interaction cost of a category pair, percent.
	OpICost Op = "icost"
	// OpBreakdown: the focused breakdown over all requested
	// categories (costs plus focus-pair interactions).
	OpBreakdown Op = "breakdown"
	// OpCalibrate: exact per-category cost percentages from a windowed
	// ground-truth analysis of the aggregate's binary — the yardstick
	// the sampled estimates above are judged against. Runs the full
	// trace through the bounded-memory pipeline, so it is exact (no
	// error bars) yet never holds a whole-trace graph resident.
	OpCalibrate Op = "calibrate"
)

// Query is one fleet query: which aggregate, and what to estimate
// over it.
type Query struct {
	Binary string `json:"binary"`
	Seed   uint64 `json:"seed,omitempty"`
	Group  string `json:"group"`
	Op     Op     `json:"op"`
	// Cats meaning depends on Op: cost takes exactly one category,
	// icost exactly two, breakdown any list (empty = the paper's
	// eight base categories).
	Cats []string `json:"cats,omitempty"`
	// Focus is the breakdown focus category (default "dl1").
	Focus string `json:"focus,omitempty"`
	// Fragments overrides how many fragments the estimate stitches
	// (0 = the aggregator's configured default).
	Fragments int `json:"fragments,omitempty"`
	// Calibrate-only trace shape: timed instructions, warmup, and the
	// emission-window size of the windowed ground-truth run (defaults
	// 100000 / 10000 / 4096; ignored and zeroed for other ops).
	TraceLen    int `json:"trace_len,omitempty"`
	Warmup      int `json:"warmup,omitempty"`
	WindowInsts int `json:"window_insts,omitempty"`
}

// Key returns the aggregate the query targets.
func (q Query) Key() Key { return Key{Binary: q.Binary, Seed: q.Seed, Group: q.Group} }

// normalize validates the query, fills defaults, and resolves the
// (focus, cats) pair the underlying estimate is computed over.
func (q Query) normalize(defaultFragments int) (Query, breakdown.Category, []breakdown.Category, error) {
	var focus breakdown.Category
	if q.Binary == "" || q.Group == "" {
		return q, focus, nil, errValidation("fleet: query needs binary and group")
	}
	if q.Seed == 0 {
		q.Seed = 42
	}
	if q.Fragments == 0 {
		q.Fragments = defaultFragments
	}
	if q.Fragments < 1 {
		return q, focus, nil, errValidation("fleet: fragments must be >= 1")
	}
	for _, c := range q.Cats {
		if _, ok := depgraph.FlagByName(c); !ok {
			return q, focus, nil, errValidation("fleet: unknown category %q (have %s)",
				c, strings.Join(depgraph.FlagNames(), ","))
		}
	}
	switch q.Op {
	case OpCost:
		if len(q.Cats) != 1 {
			return q, focus, nil, errValidation("fleet: cost query takes exactly one category")
		}
		q.Focus = q.Cats[0]
	case OpICost:
		if len(q.Cats) != 2 || q.Cats[0] == q.Cats[1] {
			return q, focus, nil, errValidation("fleet: icost query takes exactly two distinct categories")
		}
		q.Focus = q.Cats[0]
	case OpBreakdown:
		if len(q.Cats) == 0 {
			q.Cats = depgraph.FlagNames()
		}
		if q.Focus == "" {
			q.Focus = "dl1"
		}
		if _, ok := depgraph.FlagByName(q.Focus); !ok {
			return q, focus, nil, errValidation("fleet: unknown focus category %q", q.Focus)
		}
	case OpCalibrate:
		if len(q.Cats) == 0 {
			q.Cats = depgraph.FlagNames()
		}
		q.Focus = q.Cats[0] // unused by calibration; pinned for the generic tail below
		if q.TraceLen == 0 {
			q.TraceLen = 100_000
		}
		if q.Warmup == 0 {
			q.Warmup = 10_000
		}
		if q.WindowInsts == 0 {
			q.WindowInsts = 4096
		}
		if q.TraceLen < 1 || q.TraceLen > 1<<30 || q.Warmup < 0 || q.WindowInsts < 1 {
			return q, focus, nil, errValidation("fleet: bad calibration shape trace_len=%d warmup=%d window_insts=%d",
				q.TraceLen, q.Warmup, q.WindowInsts)
		}
	case "":
		return q, focus, nil, errValidation("fleet: query needs an op (cost, icost, breakdown, calibrate)")
	default:
		return q, focus, nil, errValidation("fleet: unknown op %q (have cost, icost, breakdown, calibrate)", q.Op)
	}
	if q.Op != OpCalibrate {
		// The trace shape parameterizes only the ground-truth run; zero
		// it elsewhere so equivalent estimate queries share memo keys.
		q.TraceLen, q.Warmup, q.WindowInsts = 0, 0, 0
	}
	ff, _ := depgraph.FlagByName(q.Focus)
	focus = breakdown.Category{Name: q.Focus, Flags: ff}
	cats := make([]breakdown.Category, 0, len(q.Cats))
	seenFocus := false
	for _, c := range q.Cats {
		f, _ := depgraph.FlagByName(c)
		cats = append(cats, breakdown.Category{Name: c, Flags: f})
		if c == q.Focus {
			seenFocus = true
		}
	}
	if !seenFocus {
		cats = append([]breakdown.Category{focus}, cats...)
	}
	return q, focus, cats, nil
}

// estimateKey identifies the underlying estimate: every op is a view
// over one (focus, cats, fragments) analysis, so a breakdown and the
// cost queries it subsumes share a memo entry when their parameters
// align.
func (q Query) estimateKey() string {
	names := make([]string, 0, len(q.Cats)+1)
	names = append(names, q.Focus)
	names = append(names, q.Cats...)
	return strings.Join(names, ",") + "|" + strconv.Itoa(q.Fragments)
}

// calibrateKey identifies a memoized ground-truth run: the categories
// folded plus the trace shape, independent of the pool generation.
func (q Query) calibrateKey() string {
	return strings.Join(q.Cats, ",") + "|" +
		strconv.Itoa(q.TraceLen) + "|" + strconv.Itoa(q.Warmup) + "|" + strconv.Itoa(q.WindowInsts)
}

// Response is a fleet query result.
type Response struct {
	Op     Op     `json:"op"`
	Key    string `json:"key"`
	Binary string `json:"binary"`
	Group  string `json:"group"`

	// Generation is the aggregate's merge count when the estimate was
	// computed; Memoized reports whether the estimate was served from
	// the per-generation memo.
	Generation uint64 `json:"generation"`
	Memoized   bool   `json:"memoized"`

	// Aggregate shape: distinct hosts, merged batches, total sampled
	// instructions and signature samples in the pool.
	Hosts        int   `json:"hosts"`
	Batches      int64 `json:"batches"`
	SampledInsts int   `json:"sampled_insts"`
	Sigs         int   `json:"sigs"`

	// Value/StdErr answer cost and icost queries (percent of
	// execution time ± standard error); Interaction classifies an
	// icost. Pct/StdErrs carry the full breakdown.
	Value       float64            `json:"value,omitempty"`
	StdErr      float64            `json:"stderr,omitempty"`
	Interaction string             `json:"interaction,omitempty"`
	Pct         map[string]float64 `json:"pct,omitempty"`
	StdErrs     map[string]float64 `json:"stderrs,omitempty"`

	// Estimate quality: fragments analyzed vs attempted and the
	// fraction of instructions filled from a detailed sample.
	Fragments   int     `json:"fragments"`
	Attempts    int     `json:"attempts"`
	MatchedFrac float64 `json:"matched_frac"`

	// Calibrate results: BaseCycles is the ground-truth simulated
	// execution time, AnalyzedInsts/Windows/PeakBytes the windowed
	// run's shape. Pct carries the exact per-category percentages;
	// StdErrs stay empty — the ground truth has no sampling error.
	BaseCycles    int64 `json:"base_cycles,omitempty"`
	AnalyzedInsts int64 `json:"analyzed_insts,omitempty"`
	Windows       int   `json:"windows,omitempty"`
	PeakBytes     int64 `json:"peak_bytes,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
}
