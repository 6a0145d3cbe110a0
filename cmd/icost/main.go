// Command icost runs one benchmark through the out-of-order simulator
// and prints its interaction-cost breakdown (paper Section 2.3).
//
// Usage:
//
//	icost [-bench name] [-n insts] [-warmup insts] [-seed s]
//	      [-focus cat] [-dl1 lat] [-window size] [-wakeup extra]
//	      [-recovery cycles] [-full cat1,cat2,...] [-matrix]
//	      [-naive] [-cp] [-slack] [-phases k] [-dot lo:hi] [-save f]
//	      [-load f] [-engine]
//
// Examples:
//
//	icost -bench mcf                      # Table 4a-style row for mcf
//	icost -bench gap -focus shalu -wakeup 1
//	icost -bench gcc -full dmiss,bmisp,win  # full power-set breakdown
//	icost -bench twolf -matrix            # all-pairs interaction costs
//	icost -bench gzip -phases 5           # bottleneck mix over time
//	icost -bench gzip -dot 100:120        # Graphviz of a graph window
//	icost -bench mcf -engine              # same analysis via internal/engine, JSON out
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"icost/internal/breakdown"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/experiments"
	"icost/internal/ooo"
	"icost/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse flags, analyze, print, and
// return the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icost", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "gzip", "benchmark name")
		n         = fs.Int("n", 30000, "measured instructions")
		warmup    = fs.Int("warmup", 30000, "warmup instructions")
		seed      = fs.Uint64("seed", 42, "workload seed")
		focus     = fs.String("focus", "dl1", "focus category for pairwise icosts")
		dl1       = fs.Int("dl1", 2, "level-one data-cache latency")
		window    = fs.Int("window", 64, "instruction window size")
		wakeup    = fs.Int("wakeup", 0, "extra issue-wakeup latency")
		recovery  = fs.Int("recovery", 8, "branch-misprediction recovery cycles")
		full      = fs.String("full", "", "comma-separated categories for a full power-set breakdown")
		matrix    = fs.Bool("matrix", false, "print the all-pairs interaction-cost matrix")
		naive     = fs.Bool("naive", false, "print the traditional count-x-latency breakdown for contrast")
		cp        = fs.Bool("cp", false, "print the critical-path attribution by edge kind")
		slack     = fs.Bool("slack", false, "print the slack distribution (de-optimization headroom)")
		dot       = fs.String("dot", "", "write a Graphviz rendering of instructions lo:hi, e.g. -dot 100:120")
		phases    = fs.Int("phases", 0, "split the execution into K intervals and print each interval's top costs")
		save      = fs.String("save", "", "save the generated trace to a file and exit")
		load      = fs.String("load", "", "analyze a previously saved trace instead of generating one")
		useEngine = fs.Bool("engine", false, "route the query through internal/engine and print the JSON response")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "icost:", err)
		return 1
	}
	if *n < 1 || *warmup < 0 {
		return fail(fmt.Errorf("-n must be >= 1 and -warmup >= 0"))
	}

	cfg := experiments.Config{TraceLen: *n, Warmup: *warmup, Seed: *seed}
	mc := ooo.DefaultConfig().
		WithDL1Latency(*dl1).
		WithWindow(*window).
		WithWakeupExtra(*wakeup).
		WithBranchRecovery(*recovery)
	if err := mc.Graph.Validate(); err != nil {
		return fail(err)
	}

	if *useEngine {
		return runEngine(stdout, stderr, engineQuery{
			bench: *bench, n: *n, warmup: *warmup, seed: *seed,
			dl1: *dl1, window: *window, wakeup: *wakeup, recovery: *recovery,
			focus: *focus, full: *full, matrix: *matrix, slack: *slack,
			incompatible: *save != "" || *load != "" || *dot != "" ||
				*phases > 0 || *cp || *naive,
		})
	}

	if *save != "" {
		tr, err := experiments.LoadTrace(cfg, *bench)
		if err != nil {
			return fail(err)
		}
		f, err := os.Create(*save)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := trace.Write(f, tr); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "saved %d instructions of %s to %s\n", tr.Len(), tr.Name, *save)
		return 0
	}

	var a *cost.Analyzer
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return fail(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		if *warmup >= tr.Len() {
			*warmup = tr.Len() / 2
		}
		res, err := ooo.Simulate(tr, mc, ooo.Options{KeepGraph: true, Warmup: *warmup})
		if err != nil {
			return fail(err)
		}
		*bench = tr.Name
		a = cost.New(res.Graph)
	} else {
		var err error
		a, err = experiments.GraphAnalyzer(cfg, *bench, mc)
		if err != nil {
			return fail(err)
		}
	}
	cats := breakdown.BaseCategories()

	if *matrix {
		m, err := breakdown.ComputeMatrix(a, cats, *bench)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, m)
		sa, sb, sp := m.StrongestSerial()
		if sp < 0 {
			fmt.Fprintf(stdout, "strongest serial pair:   %s+%s (%.1f%%)\n", sa.Name, sb.Name, sp)
		}
		pa, pb, pp := m.StrongestParallel()
		if pp > 0 {
			fmt.Fprintf(stdout, "strongest parallel pair: %s+%s (+%.1f%%)\n", pa.Name, pb.Name, pp)
		}
		return 0
	}
	if *naive {
		nv, err := breakdown.ComputeNaive(a, cats, *bench)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, nv)
		return 0
	}
	if *cp {
		printCriticalPath(stdout, a)
		return 0
	}
	if *slack {
		printSlack(stdout, a)
		return 0
	}
	if *phases > 0 {
		if err := printPhases(stdout, a, *phases); err != nil {
			return fail(err)
		}
		return 0
	}
	if *dot != "" {
		var lo, hi int
		if _, err := fmt.Sscanf(*dot, "%d:%d", &lo, &hi); err != nil {
			return fail(fmt.Errorf("bad -dot range %q (want lo:hi): %w", *dot, err))
		}
		if err := a.Graph().DOT(stdout, lo, hi, depgraph.Ideal{}); err != nil {
			return fail(err)
		}
		return 0
	}

	if *full != "" {
		var sel []breakdown.Category
		for _, name := range strings.Split(*full, ",") {
			found := false
			for _, c := range cats {
				if c.Name == name {
					sel = append(sel, c)
					found = true
				}
			}
			if !found {
				return fail(fmt.Errorf("unknown category %q", name))
			}
		}
		fb, err := breakdown.ComputeFull(a, sel, *bench)
		if err != nil {
			return fail(err)
		}
		if err := fb.CheckIdentity(); err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, breakdown.StackedBar(fb, 50))
		return 0
	}

	var fc breakdown.Category
	ok := false
	for _, c := range cats {
		if c.Name == *focus {
			fc, ok = c, true
		}
	}
	if !ok {
		return fail(fmt.Errorf("unknown focus category %q", *focus))
	}
	bd, err := breakdown.Focus(a, fc, cats, *bench)
	if err != nil {
		return fail(err)
	}
	insts := a.Graph().Len()
	fmt.Fprintf(stdout, "%s: %d cycles over %d instructions (IPC %.2f)\n",
		*bench, bd.TotalCycles, insts, float64(insts)/float64(bd.TotalCycles))
	fmt.Fprint(stdout, breakdown.Table([]*breakdown.Focused{bd}))
	return 0
}

// engineQuery carries the flag state runEngine needs.
type engineQuery struct {
	bench                         string
	n, warmup                     int
	seed                          uint64
	dl1, window, wakeup, recovery int
	focus, full                   string
	matrix, slack                 bool
	incompatible                  bool
}

// runEngine answers the query through internal/engine — the same code
// path cmd/icostd serves — and prints the engine's JSON response.
func runEngine(stdout, stderr io.Writer, eq engineQuery) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "icost:", err)
		return 1
	}
	if eq.incompatible {
		return fail(fmt.Errorf("-engine supports the breakdown, -full, -matrix and -slack views only"))
	}
	q := engine.Query{
		Session: engine.SessionSpec{
			Bench: eq.bench, Seed: eq.seed, TraceLen: eq.n, Warmup: eq.warmup,
			DL1Latency: eq.dl1, Window: eq.window,
			WakeupExtra: eq.wakeup, BranchRecovery: eq.recovery,
		},
	}
	switch {
	case eq.matrix:
		q.Op = engine.OpMatrix
	case eq.slack:
		q.Op = engine.OpSlack
	case eq.full != "":
		q.Op = engine.OpFull
		q.Cats = strings.Split(eq.full, ",")
	default:
		q.Op = engine.OpBreakdown
		q.Focus = eq.focus
	}
	e := engine.New(engine.Config{})
	defer e.Close()
	resp, err := e.Query(context.Background(), q)
	if err != nil {
		return fail(err)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return fail(err)
	}
	return 0
}

// printCriticalPath attributes one critical path's cycles by edge
// kind (the classic criticality view that icost breakdowns refine).
func printCriticalPath(w io.Writer, a *cost.Analyzer) {
	g := a.Graph()
	tally := g.CriticalTally(depgraph.Ideal{})
	fmt.Fprintf(w, "critical path: %d cycles across %d edge kinds\n", tally.Total, len(tally.Cycles))
	for k := range tally.Cycles {
		if tally.Edges[k] == 0 {
			continue
		}
		kind := depgraph.EdgeKind(k)
		fmt.Fprintf(w, "  %-4v %8d cycles  %6d edges  %5.1f%%\n",
			kind, tally.Cycles[k], tally.Edges[k],
			100*float64(tally.Cycles[k])/float64(tally.Total))
	}
}

// printSlack summarizes per-instruction slack: how much latency could
// be added for free (de-optimization headroom, paper Section 1).
func printSlack(w io.Writer, a *cost.Analyzer) {
	g := a.Graph()
	slacks := g.Slacks(depgraph.Ideal{})
	var zero, small, large int
	var sum int64
	for _, s := range slacks {
		sum += s
		switch {
		case s == 0:
			zero++
		case s < 10:
			small++
		default:
			large++
		}
	}
	n := len(slacks)
	fmt.Fprintf(w, "slack over %d instructions (cycles an instruction can slip for free):\n", n)
	fmt.Fprintf(w, "  critical (slack = 0):   %6d (%.1f%%)\n", zero, 100*float64(zero)/float64(n))
	fmt.Fprintf(w, "  slack 1..9:             %6d (%.1f%%)\n", small, 100*float64(small)/float64(n))
	fmt.Fprintf(w, "  slack >= 10:            %6d (%.1f%%)  <- de-optimization candidates\n",
		large, 100*float64(large)/float64(n))
	fmt.Fprintf(w, "  mean slack:             %.1f cycles\n", float64(sum)/float64(n))
}

// printPhases shows how the bottleneck mix shifts over the execution:
// one row per interval with the interval's dominant categories.
func printPhases(w io.Writer, a *cost.Analyzer, k int) error {
	g := a.Graph()
	parts, err := g.Phases(k)
	if err != nil {
		return err
	}
	cats := breakdown.BaseCategories()
	masks := make([]depgraph.Flags, 0, len(cats))
	for _, c := range cats {
		masks = append(masks, c.Flags)
	}
	fmt.Fprintf(w, "phase  insts   cycles   IPC    top categories\n")
	for pi, pg := range parts {
		pa := cost.New(pg)
		// One batched walk per phase graph instead of one scalar walk
		// per category.
		if err := pa.PrewarmCtx(context.Background(), masks); err != nil {
			return err
		}
		type cv struct {
			name string
			pct  float64
		}
		var top []cv
		for _, c := range cats {
			top = append(top, cv{c.Name,
				100 * float64(pa.Cost(c.Flags)) / float64(pa.BaseTime())})
		}
		sort.Slice(top, func(i, j int) bool { return top[i].pct > top[j].pct })
		fmt.Fprintf(w, "%5d  %5d  %7d  %4.2f   %s %.1f%%, %s %.1f%%, %s %.1f%%\n",
			pi, pg.Len(), pa.BaseTime(),
			float64(pg.Len())/float64(pa.BaseTime()),
			top[0].name, top[0].pct, top[1].name, top[1].pct, top[2].name, top[2].pct)
	}
	return nil
}
