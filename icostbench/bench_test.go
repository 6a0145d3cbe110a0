package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icost/internal/engine"
)

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10000, want: 0.999, ok: true},
		{n: 9999, want: 0.99, ok: true},
		{n: 1000, want: 0.99, ok: true},
		{n: 999, want: 0.95, ok: true},
		{n: 200, want: 0.95, ok: true},
		{n: 100, want: 0.9, ok: true},
		{n: 20, want: 0.5, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		got, ok := tailLevel(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < 10 {
			t.Errorf("tailLevel(%d) = %v leaves %d samples beyond it", tc.n, got, beyond(tc.n, got))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q := quantile(xs, 0.99); q != 99 {
		t.Errorf("nearest-rank p99 of 1..100 = %v, want 99", q)
	}
	if q := quantile(xs, 0.5); q != 50 {
		t.Errorf("nearest-rank p50 of 1..100 = %v, want 50", q)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 100 * ms}
	children := []span{
		{Start: 10 * ms, End: 30 * ms},
		{Start: 20 * ms, End: 50 * ms},   // overlaps the first: union 10..50
		{Start: 90 * ms, End: 120 * ms},  // clipped to the parent: 90..100
		{Start: 150 * ms, End: 160 * ms}, // outside the parent
	}
	if got := selfTime(parent, children); got != 50*ms {
		t.Errorf("selfTime = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}

	// One routed request: every layer keeps 20 ms of its own, and the
	// engine's elapsed time sits at the end of the daemon span.
	spans := []span{
		{Req: "1", Layer: "client", Start: 0, End: 100 * ms},
		{Req: "1", Layer: "router", Start: 10 * ms, End: 90 * ms},
		{Req: "1", Layer: "forward", Start: 20 * ms, End: 80 * ms},
		{Req: "1", Layer: "daemon", Start: 30 * ms, End: 70 * ms},
		{Req: "1", Layer: "engine", End: 20 * ms},
		{Req: "2", Layer: "daemon", Start: 0, End: 5 * ms}, // no client span: dropped
	}
	st := reduceSpans(spans)
	if st.requests != 1 {
		t.Fatalf("requests = %d, want 1", st.requests)
	}
	for _, l := range layerOrder {
		if st.self[l] != 20*ms {
			t.Errorf("self[%s] = %v, want 20ms", l, st.self[l])
		}
	}
	var check func(n *treeNode)
	check = func(n *treeNode) {
		if len(n.children) == 0 {
			return
		}
		var sum time.Duration
		for _, c := range n.children {
			sum += c.value
			check(c)
		}
		if sum != n.value {
			t.Errorf("tree node %s = %v, children sum to %v", n.name, n.value, sum)
		}
	}
	tree := st.tree()
	if tree.value != 100*ms {
		t.Errorf("tree root = %v, want 100ms", tree.value)
	}
	check(tree)
}

func TestColdSweepNeverRepeatsASession(t *testing.T) {
	for _, seed := range []uint64{1, 2, 1 << 40} {
		cfg := defaultConfig()
		cfg.seed = seed
		w := &coldSweep{cfg: cfg}
		seen := map[string]int{}
		for i := 0; i < 5000; i++ {
			s, _ := w.study(i)
			k, err := s.Key()
			if err != nil {
				t.Fatalf("seed %d study %d: %v", seed, i, err)
			}
			if j, dup := seen[k]; dup {
				t.Fatalf("seed %d: study %d repeats the session of study %d (%+v)", seed, i, j, s)
			}
			seen[k] = i
		}
		for _, v := range coldVariants {
			k, _ := v.apply(cfg.session("bzip", 1)).Key()
			if j, dup := seen[k]; dup {
				t.Fatalf("seed %d: study %d repeats a set-up session", seed, j)
			}
		}
	}
}

// tinyConfig shrinks every workload so a whole run takes a few seconds.
func tinyConfig(workload string) *config {
	cfg := defaultConfig()
	cfg.workload, cfg.seconds, cfg.records = workload, 1, ""
	cfg.traceLen, cfg.warmup = 2000, 1000
	cfg.longLen, cfg.longWindow = 6000, 512
	return cfg
}

// TestRunsReportTheContractMetrics runs every workload small, untraced
// and traced, and checks that each is correct and reports exactly the
// metrics BENCHMARK.json lists.
func TestRunsReportTheContractMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"warm-serve", "cold-sweep", "long-trace"} {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(wl)
			cfg.trace = traced
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d checks=%v", wl, traced, res.Correct, res.Failed, res.Checks)
			}
			want := contract.EndToEnd
			if traced {
				want = contract.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestInjectedWrongAnswerFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, wl := range []string{"warm-serve", "cold-sweep", "long-trace"} {
		cfg := tinyConfig(wl)
		cfg.tamper = func(a *answer) {
			a.raw = bytes.Replace(a.raw, []byte(`"base_cycles": `), []byte(`"base_cycles": 1`), 1)
		}
		res, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong answer: correct=%v failed=%d", wl, res.Correct, res.Failed)
		}
	}
}

func TestWarmServeHalvesCheck(t *testing.T) {
	// 10 s windows: a steady one passes, one whose second half runs 30%
	// slower fails, and a 1 s window is too short to be held to it.
	window := func(secs float64, first, second int) *timedWindow {
		start := time.Unix(0, 0)
		d := time.Duration(secs * float64(time.Second))
		w := &timedWindow{start: start, end: start.Add(d)}
		for i := 0; i < first; i++ {
			w.ops = append(w.ops, op{end: start.Add(d / 4)})
		}
		for i := 0; i < second; i++ {
			w.ops = append(w.ops, op{end: start.Add(3 * d / 4)})
		}
		return w
	}
	ws := &warmServe{}
	for i, tc := range []struct {
		win  *timedWindow
		fail bool
	}{
		{window(10, 1000, 1050), false},
		{window(10, 1000, 700), true},
		{window(1, 1000, 700), false},
	} {
		if got := len(ws.shape(tc.win)) > 0; got != tc.fail {
			t.Errorf("case %d: violation=%v, want %v (%v)", i, got, tc.fail, ws.shape(tc.win))
		}
	}
}

func TestQueryP50s(t *testing.T) {
	us := time.Microsecond
	w := &timedWindow{ops: []op{
		{kinds: []engine.Op{engine.OpBreakdown, engine.OpSensitivity}, lat: []time.Duration{100 * us, 10 * us}},
		{kinds: []engine.Op{engine.OpBreakdown, engine.OpSensitivity}, lat: []time.Duration{300 * us, 30 * us}},
		{kinds: []engine.Op{engine.OpBreakdown}, lat: []time.Duration{200 * us}},
		{kinds: []engine.Op{engine.OpBreakdown}, lat: []time.Duration{5 * us}, repeat: true},
		// A failed query has a kind but no round trip.
		{kinds: []engine.Op{engine.OpICost}, failed: true},
	}}
	got := w.queryP50s(io.Discard)
	if len(got) != len(queryOps)+1 {
		t.Errorf("%d metrics, want one per op plus repeats", len(got))
	}
	for name, want := range map[string]float64{
		"query.breakdown.p50_us":   200,
		"query.sensitivity.p50_us": 10, // nearest rank of two samples
		"query.repeat.p50_us":      5,
		"query.icost.p50_us":       0,
		"query.slack.p50_us":       0,
	} {
		if m := got[name]; m.Value != want || m.Unit != "us" {
			t.Errorf("%s = %+v, want %v us", name, m, want)
		}
	}
}
