package main

// Output checks. After the timed windows, sampled answers are
// recomputed by calling the library directly on graphs built
// independently of the service: the non-streaming workload.Load +
// ooo.Simulate path instead of the engine's streamed build, and a whole
// graph even where the service folded the trace window by window.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"icost/internal/breakdown"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// normSpec applies the engine's session defaults (Table 6 machine,
// seed 42, 30k timed instructions after 30k warmup).
func normSpec(s engine.SessionSpec) engine.SessionSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	def(&s.TraceLen, 30000)
	def(&s.Warmup, 30000)
	def(&s.DL1Latency, 2)
	def(&s.Window, 64)
	def(&s.BranchRecovery, 8)
	return s
}

// machineOf is the simulated machine of a normalized spec.
func machineOf(s engine.SessionSpec) ooo.Config {
	return ooo.DefaultConfig().
		WithDL1Latency(s.DL1Latency).
		WithWindow(s.Window).
		WithWakeupExtra(s.WakeupExtra).
		WithBranchRecovery(s.BranchRecovery)
}

// normQuery applies the engine's query defaults and canonical order.
func normQuery(q engine.Query) engine.Query {
	switch q.Op {
	case engine.OpBreakdown, engine.OpFull, engine.OpMatrix, engine.OpSensitivity:
		if len(q.Cats) == 0 {
			q.Cats = depgraph.FlagNames()
		}
	}
	switch q.Op {
	case engine.OpCost, engine.OpExecTime, engine.OpICost, engine.OpMatrix, engine.OpSensitivity:
		q.Cats = append([]string(nil), q.Cats...)
		sort.Strings(q.Cats)
	}
	if q.Op == engine.OpBreakdown && q.Focus == "" {
		q.Focus = "dl1"
	}
	if q.Op == engine.OpSensitivity {
		in := q.Alphas
		if len(in) == 0 {
			in = engineDefaultGrid
		}
		var out []float64
		for _, x := range in {
			out = append(out, depgraph.AlphaOf(x).Float())
		}
		sort.Float64s(out)
		q.Alphas = out[:1]
		for _, x := range out[1:] {
			if x != q.Alphas[len(q.Alphas)-1] {
				q.Alphas = append(q.Alphas, x)
			}
		}
	}
	return q
}

// payload is the comparable content of a response.
type payload struct {
	BaseCycles  int64                `json:"base_cycles"`
	Insts       int                  `json:"insts"`
	Value       int64                `json:"value"`
	Interaction string               `json:"interaction"`
	Breakdown   *breakdown.Focused   `json:"breakdown"`
	Full        *breakdown.Full      `json:"full"`
	Matrix      *breakdown.Matrix    `json:"matrix"`
	Slack       *engine.SlackSummary `json:"slack"`
	Alphas      []float64            `json:"alphas"`
	Curves      []cost.Curve         `json:"curves"`
}

func payloadOf(raw []byte) (payload, error) {
	var r engine.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return payload{}, err
	}
	p := payload{BaseCycles: r.BaseCycles, Insts: r.Insts, Value: r.Value, Interaction: r.Interaction,
		Breakdown: r.Breakdown, Full: r.Full, Matrix: r.Matrix, Slack: r.Slack}
	if r.Sensitivity != nil {
		p.Alphas, p.Curves = r.Sensitivity.Alphas, r.Sensitivity.Curves
	}
	return p, nil
}

// reference is one independently built whole-graph session.
type reference struct {
	a      *cost.Analyzer
	g      *depgraph.Graph
	cycles int64
	bench  string
}

func buildReference(s engine.SessionSpec) (*reference, error) {
	s = normSpec(s)
	tr, err := workload.Load(s.Bench, s.Seed, s.Warmup+s.TraceLen)
	if err != nil {
		return nil, err
	}
	res, err := ooo.Simulate(tr, machineOf(s), ooo.Options{KeepGraph: true, Warmup: s.Warmup})
	if err != nil {
		return nil, err
	}
	return &reference{a: cost.New(res.Graph), g: res.Graph, cycles: res.Cycles, bench: s.Bench}, nil
}

func categories(names []string) []breakdown.Category {
	out := make([]breakdown.Category, len(names))
	for i, n := range names {
		f, _ := depgraph.FlagByName(n)
		out[i] = breakdown.Category{Name: n, Flags: f}
	}
	return out
}

func flagsOf(names []string) []depgraph.Flags {
	out := make([]depgraph.Flags, len(names))
	for i, n := range names {
		out[i], _ = depgraph.FlagByName(n)
	}
	return out
}

func union(names []string) depgraph.Flags {
	var u depgraph.Flags
	for _, f := range flagsOf(names) {
		u |= f
	}
	return u
}

// expect computes the answer the service should have given to q.
func (r *reference) expect(ctx context.Context, q engine.Query) (payload, error) {
	q = normQuery(q)
	p := payload{BaseCycles: r.cycles, Insts: r.g.Len()}
	var err error
	switch q.Op {
	case engine.OpCost:
		p.Value, err = r.a.CostCtx(ctx, union(q.Cats))
	case engine.OpExecTime:
		p.Value, err = r.a.ExecTimeCtx(ctx, union(q.Cats))
	case engine.OpICost:
		p.Value, err = r.a.ICostCtx(ctx, flagsOf(q.Cats)...)
		p.Interaction = cost.Classify(p.Value, 0).String()
	case engine.OpBreakdown:
		p.Breakdown, err = breakdown.FocusCtx(ctx, r.a, categories([]string{q.Focus})[0], categories(q.Cats), r.bench)
	case engine.OpFull:
		p.Full, err = breakdown.ComputeFullCtx(ctx, r.a, categories(q.Cats), r.bench)
	case engine.OpMatrix:
		p.Matrix, err = breakdown.ComputeMatrixCtx(ctx, r.a, categories(q.Cats), r.bench)
	case engine.OpSensitivity:
		grid := make([]depgraph.Alpha, len(q.Alphas))
		for i, x := range q.Alphas {
			grid[i] = depgraph.AlphaOf(x)
		}
		p.Alphas = q.Alphas
		p.Curves, err = r.a.SensitivityCtx(ctx, flagsOf(q.Cats), grid)
	case engine.OpSlack:
		var sl []int64
		if sl, err = r.g.SlacksCtx(ctx, depgraph.Ideal{}); err == nil {
			p.Slack = slackSummary(sl)
		}
	default:
		err = fmt.Errorf("no reference for op %q", q.Op)
	}
	return p, err
}

// slackSummary mirrors the engine's slack aggregation.
func slackSummary(slacks []int64) *engine.SlackSummary {
	s := &engine.SlackSummary{Insts: len(slacks)}
	var total int64
	for _, v := range slacks {
		total += v
		switch {
		case v == 0:
			s.Critical++
		case v < 10:
			s.Small++
		default:
			s.Large++
		}
	}
	if len(slacks) > 0 {
		s.MeanSlack = float64(total) / float64(len(slacks))
	}
	return s
}

// checkOps recomputes every kept answer and marks the operations whose
// answers disagree as failed. It returns the number of answers checked
// and one line per mismatch. References are built one session at a
// time, in session order, and dropped after use.
func checkOps(ctx context.Context, ops []*op) (int, []string, error) {
	type item struct {
		op  int
		a   answer
		key string
	}
	var items []item
	for i, o := range ops {
		for _, a := range o.answers {
			s := normSpec(a.q.Session)
			s.WindowInsts = 0 // the reference is a whole graph
			items = append(items, item{op: i, a: a, key: fmt.Sprintf("%+v", s)})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].key < items[j].key })
	var ref *reference
	var refKey string
	var bad []string
	for n, it := range items {
		if it.key != refKey {
			s := it.a.q.Session
			s.WindowInsts = 0
			var err error
			if ref, err = buildReference(s); err != nil {
				return n, bad, fmt.Errorf("building reference for %s: %w", it.key, err)
			}
			refKey = it.key
		}
		if msg := ref.compare(ctx, it.a); msg != "" {
			ops[it.op].failed = true
			bad = append(bad, msg)
		}
	}
	return len(items), bad, nil
}

func (r *reference) compare(ctx context.Context, a answer) string {
	got, err := payloadOf(a.raw)
	if err != nil {
		return fmt.Sprintf("%s %s: undecodable answer: %v", a.q.Op, a.q.Session.Bench, err)
	}
	want, err := r.expect(ctx, a.q)
	if err != nil {
		return fmt.Sprintf("%s %s: reference failed: %v", a.q.Op, a.q.Session.Bench, err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		return fmt.Sprintf("%s %s: answer differs from the library's\n  got  %s\n  want %s",
			a.q.Op, a.q.Session.Bench, clip(gb), clip(wb))
	}
	return ""
}

func clip(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "..."
	}
	return string(b)
}
