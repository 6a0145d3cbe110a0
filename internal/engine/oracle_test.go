package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"icost/internal/breakdown"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// libraryResult simulates spec through the library's non-streaming
// path — workload.Load, then ooo.Simulate keeping the whole graph —
// which shares no code with the engine's windowed passes, block logs or
// memo. icostbench's output check uses the same path.
func libraryResult(t testing.TB, spec SessionSpec) (*ooo.Result, SessionSpec) {
	t.Helper()
	spec, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Load(spec.Bench, spec.Seed, spec.Warmup+spec.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ooo.Simulate(tr, spec.machine(), ooo.Options{KeepGraph: true, Warmup: spec.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	return res, spec
}

// reference is the independent oracle for every engine answer on one
// spec: a whole graph from libraryResult, a graph-backed analyzer over
// it (scalar walk for one lane, EvalBatch for more) and the backward
// walk for slack.
type reference struct {
	spec   SessionSpec
	g      *depgraph.Graph
	a      *cost.Analyzer
	cycles int64
}

func newReference(t testing.TB, spec SessionSpec) *reference {
	res, spec := libraryResult(t, spec)
	return &reference{spec: spec, g: res.Graph, a: cost.New(res.Graph), cycles: res.Cycles}
}

// answer is the library's answer to q, rendered as answerOnly renders
// an engine response.
func (r *reference) answer(t testing.TB, q Query) []byte {
	t.Helper()
	q.Session = r.spec
	q, err := q.normalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resp := &Response{Op: q.Op, Bench: r.spec.Bench, BaseCycles: r.cycles, Insts: r.g.Len()}
	cats := make([]breakdown.Category, len(q.Cats))
	var flags []depgraph.Flags
	var union depgraph.Flags
	for i, n := range q.Cats {
		f, _ := depgraph.FlagByName(n)
		cats[i] = breakdown.Category{Name: n, Flags: f}
		flags = append(flags, f)
		union |= f
	}
	switch q.Op {
	case OpCost:
		resp.Value, err = r.a.CostCtx(ctx, union)
	case OpExecTime:
		resp.Value, err = r.a.ExecTimeCtx(ctx, union)
	case OpICost:
		resp.Value, err = r.a.ICostCtx(ctx, flags...)
		resp.Interaction = cost.Classify(resp.Value, 0).String()
	case OpBreakdown:
		f, _ := depgraph.FlagByName(q.Focus)
		resp.Breakdown, err = breakdown.FocusCtx(ctx, r.a, breakdown.Category{Name: q.Focus, Flags: f}, cats, r.spec.Bench)
	case OpFull:
		resp.Full, err = breakdown.ComputeFullCtx(ctx, r.a, cats, r.spec.Bench)
	case OpMatrix:
		resp.Matrix, err = breakdown.ComputeMatrixCtx(ctx, r.a, cats, r.spec.Bench)
	case OpSensitivity:
		grid := make([]depgraph.Alpha, len(q.Alphas))
		for i, x := range q.Alphas {
			grid[i] = depgraph.AlphaOf(x)
		}
		var curves []cost.Curve
		curves, err = r.a.SensitivityCtx(ctx, flags, grid)
		resp.Sensitivity = &SensitivityResult{Alphas: q.Alphas, Curves: curves}
	case OpSlack:
		slacks := r.g.Slacks(depgraph.Ideal{})
		sum := &SlackSummary{Insts: len(slacks)}
		var total int64
		for _, sl := range slacks {
			total += sl
			switch {
			case sl == 0:
				sum.Critical++
			case sl < 10:
				sum.Small++
			default:
				sum.Large++
			}
		}
		sum.MeanSlack = float64(total) / float64(len(slacks))
		resp.Slack = sum
	default:
		t.Fatalf("no reference for op %q", q.Op)
	}
	if err != nil {
		t.Fatalf("reference %s: %v", q.Op, err)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// oracleMachines are the machines the property test draws from: the
// Table 6 machine, those of Tables 4a-c and the five Figure 3 points
// cold-sweep sweeps, two whose wakeup_extra voids the carry argument
// (their passes hold the whole stream) and a 4096-entry window whose
// carry depth passes the stream.
var oracleMachines = []struct {
	name                          string
	dl1, window, wakeup, recovery int
}{
	{name: "table6"},
	{name: "table4a", dl1: 4},
	{name: "table4b", wakeup: 1},
	{name: "table4c", recovery: 15},
	{name: "fig3-dl1-1-win64", dl1: 1, window: 64},
	{name: "fig3-dl1-1-win128", dl1: 1, window: 128},
	{name: "fig3-dl1-1-win256", dl1: 1, window: 256},
	{name: "fig3-dl1-4-win128", dl1: 4, window: 128},
	{name: "fig3-dl1-4-win256", dl1: 4, window: 256},
	{name: "wakeup5", wakeup: 5},
	{name: "wakeup100", wakeup: 100},
	{name: "window4096", window: 4096},
}

// TestEngineMatchesLibrary is the engine's oracle property test: for
// every benchmark and two seeds, each on a machine drawn from
// oracleMachines (every machine twice), a few thousand instructions in
// blocks that do or do not divide the trace, all eight ops in a seeded
// order answer byte-identically to the library's whole-graph walk. The
// ops run against one engine of four sessions, so later draws evict
// earlier sessions and their logs; every third session is restored
// from a snapshot, without a log, so its first miss simulates.
func TestEngineMatchesLibrary(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(26, 1))
	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()
	names := depgraph.FlagNames()
	pick := func(lo, hi int) []string {
		var out []string
		for _, k := range rng.Perm(len(names))[:lo+rng.IntN(hi-lo+1)] {
			out = append(out, names[k])
		}
		return out
	}
	order := rng.Perm(len(oracleMachines))
	draw := 0
	for _, bench := range workload.Names() {
		for _, seed := range []uint64{3, 11} {
			m := oracleMachines[order[draw%len(oracleMachines)]]
			block := []int{256, 500, 1000, 0}[draw%4]
			traceLen := 2000 + rng.IntN(2500)
			if block > 0 && draw%8 < 4 {
				traceLen -= traceLen % block // a block size that divides the trace
			}
			draw++
			spec := SessionSpec{Bench: bench, Seed: seed, TraceLen: traceLen, Warmup: 500 + rng.IntN(1000),
				DL1Latency: m.dl1, Window: m.window, WakeupExtra: m.wakeup, BranchRecovery: m.recovery, WindowInsts: block}
			ref := newReference(t, spec)
			if draw%3 == 1 {
				// A restored session holds no log: its first miss
				// simulates and records, its later ones replay.
				scratch := New(Config{Workers: 1})
				key, err := scratch.Warm(ctx, spec)
				var snap bytes.Buffer
				if err == nil {
					err = scratch.SnapshotSession(ctx, key, &snap)
				}
				scratch.Close()
				if err == nil {
					_, err = e.RestoreSession(ctx, &snap)
				}
				if err != nil {
					t.Fatalf("%s seed %d: restoring: %v", bench, seed, err)
				}
			}
			alphas := []float64{0, 0.25, 0.5, 0.75, 1}
			if rng.IntN(2) == 0 {
				alphas = []float64{0, float64(1+rng.IntN(7)) / 8, 1}
			}
			qs := []Query{
				{Op: OpCost, Cats: pick(1, 3)},
				{Op: OpICost, Cats: pick(2, 3)},
				{Op: OpExecTime, Cats: pick(0, 3)},
				{Op: OpBreakdown, Focus: names[rng.IntN(len(names))]},
				{Op: OpFull},
				{Op: OpSlack},
				{Op: OpMatrix, Cats: pick(3, 8)},
				{Op: OpSensitivity, Cats: pick(1, 3), Alphas: alphas},
			}
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			for _, q := range qs {
				q.Session = spec
				what := fmt.Sprintf("%s seed %d on %s, %d insts in %d blocks: %s %v", bench, seed, m.name, traceLen, block, q.Op, q.Cats)
				resp, err := e.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got, want := answerOnly(t, resp), ref.answer(t, q); string(got) != string(want) {
					t.Fatalf("%s diverged from the library:\n  library: %s\n  engine:  %s", what, clipJSON(want), clipJSON(got))
				}
			}
			ref.g.Release()
		}
	}
	m := e.Metrics()
	if m.WindowedReplaysTotal == 0 || m.WindowedRefoldsTotal == m.WindowedReplaysTotal || m.SessionsEvictedTotal == 0 {
		t.Fatalf("the draws never mixed replays (%d), simulated re-folds (%d of %d) and evictions (%d)",
			m.WindowedReplaysTotal, m.WindowedRefoldsTotal-m.WindowedReplaysTotal, m.WindowedRefoldsTotal, m.SessionsEvictedTotal)
	}
}

func clipJSON(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "..."
	}
	return string(b)
}
