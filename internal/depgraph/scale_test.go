package depgraph

import (
	"context"
	"testing"

	"icost/internal/rng"
)

func TestAlphaQuantization(t *testing.T) {
	cases := []struct {
		x    float64
		want Alpha
	}{
		{-0.5, 0}, {0, 0}, {1, AlphaOne}, {1.5, AlphaOne},
		{0.5, 128}, {0.25, 64}, {0.75, 192},
	}
	for _, c := range cases {
		if got := AlphaOf(c.x); got != c.want {
			t.Errorf("AlphaOf(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// Float/AlphaOf round-trip on every representable value.
	for a := Alpha(0); a <= AlphaOne; a++ {
		if got := AlphaOf(a.Float()); got != a {
			t.Fatalf("round-trip %d -> %v -> %d", a, a.Float(), got)
		}
	}
	// scaleLat endpoints are exact for every latency that fits a column.
	for _, lat := range []int64{0, 1, 2, 7, 100, 142, 1 << 20} {
		if got := scaleLat(lat, 0); got != 0 {
			t.Errorf("scaleLat(%d, 0) = %d", lat, got)
		}
		if got := scaleLat(lat, int64(AlphaOne)); got != lat {
			t.Errorf("scaleLat(%d, 1) = %d", lat, got)
		}
	}
}

func TestEffWindowEndpoints(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.EffWindow(AlphaOne); got != cfg.Window {
		t.Errorf("EffWindow(1) = %d, want %d", got, cfg.Window)
	}
	if got := cfg.EffWindow(0); got != cfg.Window*cfg.WindowIdealFactor {
		t.Errorf("EffWindow(0) = %d, want %d", got, cfg.Window*cfg.WindowIdealFactor)
	}
	prev := cfg.EffWindow(0)
	for a := Alpha(1); a <= AlphaOne; a++ {
		w := cfg.EffWindow(a)
		if w > prev {
			t.Fatalf("EffWindow not monotone at α=%d: %d > %d", a, w, prev)
		}
		prev = w
	}
}

func TestCanonScale(t *testing.T) {
	s := ScaleVec{10, 20, 30, 40, 50, 60, 70, 80}
	got := CanonScale(IdealDL1|IdealWindow, s)
	want := ScaleVec{0: 10, 4: 50}
	if got != want {
		t.Errorf("CanonScale = %v, want %v", got, want)
	}
	over := ScaleVec{0: 2 * AlphaOne}
	if got := CanonScale(IdealDL1, over); got != (ScaleVec{0: AlphaOne}) {
		t.Errorf("CanonScale clamp = %v", got)
	}
	if !CanonScale(0, s).IsZero() {
		t.Error("CanonScale(0, s) should be zero")
	}
}

// randomScale draws a scale vector whose entries cover both endpoints
// and interior values.
func randomScale(r *rng.Rand) ScaleVec {
	var s ScaleVec
	for b := 0; b < NumFlags; b++ {
		switch r.Intn(4) {
		case 0:
			// leave zero
		case 1:
			s[b] = AlphaOne
		default:
			s[b] = Alpha(r.Intn(int(AlphaOne) + 1))
		}
	}
	return s
}

// TestScaledAlphaZeroBitExact drives the walks — scalar, batch and
// backward — through the public API with every selected category at
// α=0 and checks bit-exactness against the binary zero-out flags. The
// compared idealization also carries a nonzero scale entry on an
// *unselected* category, which the semantics ignore.
func TestScaledAlphaZeroBitExact(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := r.Intn(300)
		g := randomGraph(r.Derive("graph"), n)
		g.Cfg = randomCfg(r.Derive("cfg"))
		id := randomIdeal(r, n)
		// The ignored entry must sit on a category no instruction
		// selects — globally or through the per-instruction mask.
		used := id.Global
		for _, pf := range id.PerInst {
			used |= pf
		}
		if used == AllFlags {
			id.Global &^= IdealWindow
			for i := range id.PerInst {
				id.PerInst[i] &^= IdealWindow
			}
			used &^= IdealWindow
		}
		free := -1
		for b := 0; b < NumFlags; b++ {
			if used&(1<<b) == 0 {
				free = b
				break
			}
		}
		forced := id
		forced.Scale[free] = AlphaOne // ignored: category not selected
		if forced.Scale.IsZero() {
			t.Fatal("scale vector is zero")
		}

		want := g.ExecTime(id)
		if got := g.ExecTime(forced); got != want {
			t.Fatalf("seed %d: scaled scalar at α=0 gives %d, binary %d", seed, got, want)
		}

		out, err := g.EvalBatch(ctx, []Ideal{forced, id, forced})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for w, v := range out {
			if v != want {
				t.Fatalf("seed %d lane %d: scaled batch at α=0 gives %d, binary %d", seed, w, v, want)
			}
		}

		if n == 0 {
			continue
		}
		wantSl := g.Slacks(id)
		gotSl := g.Slacks(forced)
		for i := range wantSl {
			if gotSl[i] != wantSl[i] {
				t.Fatalf("seed %d inst %d: scaled slack at α=0 gives %d, binary %d", seed, i, gotSl[i], wantSl[i])
			}
		}
	}
}

// TestScaledAlphaOneMatchesBaseline: every multiplier at α=1 must
// reproduce the unidealized machine exactly, whatever flags are set.
func TestScaledAlphaOneMatchesBaseline(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		g := randomGraph(r.Derive("graph"), n)
		g.Cfg = randomCfg(r.Derive("cfg"))
		id := randomIdeal(r, n)
		id.Scale = ScaleUniform(AllFlags, AlphaOne)

		base := g.ExecTime(Ideal{})
		if got := g.ExecTime(id); got != base {
			t.Fatalf("seed %d: scaled scalar at α=1 gives %d, baseline %d (flags %v)",
				seed, got, base, id.Global)
		}
		out, err := g.EvalBatch(ctx, []Ideal{id})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out[0] != base {
			t.Fatalf("seed %d: scaled batch at α=1 gives %d, baseline %d", seed, out[0], base)
		}
		wantSl := g.Slacks(Ideal{})
		gotSl := g.Slacks(id)
		for i := range wantSl {
			if gotSl[i] != wantSl[i] {
				t.Fatalf("seed %d inst %d: scaled slack at α=1 gives %d, baseline %d",
					seed, i, gotSl[i], wantSl[i])
			}
		}
	}
}

// TestScaledBatchMatchesScalar is the lane-exactness property over
// random α grids: EvalBatch must equal the scalar scaled walk
// element-wise, for chunks mixing scaled, binary and per-instruction
// lanes.
func TestScaledBatchMatchesScalar(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := r.Intn(300)
		g := randomGraph(r.Derive("graph"), n)
		g.Cfg = randomCfg(r.Derive("cfg"))
		width := 1 + r.Intn(2*defaultLanes()+3)
		ids := make([]Ideal, width)
		for w := range ids {
			ids[w] = randomIdeal(r, n)
			if r.Bool(0.7) {
				ids[w].Scale = randomScale(r)
			}
		}
		got, err := g.EvalBatch(ctx, ids)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for w, id := range ids {
			if want := g.ExecTime(id); got[w] != want {
				t.Fatalf("seed %d lane %d (n=%d): batch %d, scalar %d (ideal %+v)",
					seed, w, n, got[w], want, id)
			}
		}
	}
}

// TestScaledMonotoneInAlpha: execution time responds monotonically to
// α — scaling a latency up can only lengthen the critical path. This
// is the property that makes sensitivity curves interpretable.
func TestScaledMonotoneInAlpha(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(250)
		g := randomGraph(r.Derive("graph"), n)
		g.Cfg = randomCfg(r.Derive("cfg"))
		f := randomFlags(r)
		if f == 0 {
			f = IdealDMiss
		}
		prev := int64(-1)
		for _, a := range []Alpha{0, 32, 64, 128, 192, 255, AlphaOne} {
			id := Ideal{Global: f, Scale: ScaleUniform(f, a)}
			got := g.ExecTime(id)
			if got < prev {
				t.Fatalf("seed %d flags %v: exec time not monotone at α=%d: %d < %d",
					seed, f, a, got, prev)
			}
			prev = got
		}
		// Endpoints against the binary answers.
		if first := g.ExecTime(Ideal{Global: f}); g.ExecTime(Ideal{Global: f, Scale: ScaleUniform(f, 0)}) != first {
			t.Fatalf("seed %d: α=0 endpoint differs from binary flags", seed)
		}
		if prev != g.ExecTime(Ideal{}) {
			t.Fatalf("seed %d: α=1 endpoint %d differs from baseline %d", seed, prev, g.ExecTime(Ideal{}))
		}
	}
}

// TestScaledCriticalPathBinds: on scaled idealizations the edge
// enumeration (InEdges) must agree with the kernels — every
// critical-path edge binds exactly, and the path reaches the last
// commit.
func TestScaledCriticalPathBinds(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(150)
		g := randomGraph(r.Derive("graph"), n)
		g.Cfg = randomCfg(r.Derive("cfg"))
		id := Ideal{Global: randomFlags(r), Scale: randomScale(r)}
		if id.Scale.IsZero() {
			id.Scale = ScaleUniform(AllFlags, 128)
		}
		tm := g.NodeTimes(id)
		path := g.CriticalPath(id)
		if len(path) == 0 {
			t.Fatalf("seed %d: empty critical path", seed)
		}
		for _, e := range path {
			from := tm.nodeTime(e.FromNode, e.FromInst)
			to := tm.nodeTime(e.ToNode, e.ToInst)
			if from+e.Lat != to {
				t.Fatalf("seed %d: edge %v does not bind: %d + %d != %d", seed, e, from, e.Lat, to)
			}
		}
		last := path[len(path)-1]
		if last.ToInst != n-1 || last.ToNode != NodeC {
			t.Fatalf("seed %d: path ends at %v%d, want C%d", seed, last.ToNode, last.ToInst, n-1)
		}
		// Latest times bound actual times from above under scale too.
		tm2, l, err := g.LatestTimesCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if l.P[i] < tm2.P[i] || l.C[i] < tm2.C[i] || l.D[i] < tm2.D[i] {
				t.Fatalf("seed %d inst %d: latest below actual", seed, i)
			}
		}
	}
}

// graphWindows slices a whole graph into Window blocks with
// Lo-relative references, absent ones as NoRef: the shape the
// streaming simulator emits.
func graphWindows(g *Graph, block int) []*Window {
	n := g.Len()
	rel := func(abs int32, lo int) int32 {
		if abs < 0 {
			return NoRef
		}
		return abs - int32(lo)
	}
	var wins []*Window
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		w := &Window{}
		w.Resize(int64(lo), hi-lo)
		for j := 0; j < hi-lo; j++ {
			i := lo + j
			w.Info[j] = g.Info[i]
			w.DDBreak[j] = g.DDBreak[i]
			w.RELat[j] = g.RELat[i]
			w.CCLat[j] = g.CCLat[i]
			w.Prod1[j] = rel(g.Prod1[i], lo)
			w.Prod2[j] = rel(g.Prod2[i], lo)
			w.PPLeader[j] = rel(g.PPLeader[i], lo)
			var mp uint8
			if i > 0 && g.Info[i-1].Mispredict {
				mp = 1
			}
			w.MispPrev[j] = mp
		}
		wins = append(wins, w)
	}
	return wins
}

// TestScaledWindowedMatchesWholeGraph: the windowed fold over scaled
// lanes must be bit-identical to the whole-graph scaled walk at every
// grid point, including mixed binary/scaled lane sets.
func TestScaledWindowedMatchesWholeGraph(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(400)
		g := randomGraph(r.Derive("graph"), n)
		g.Cfg = randomCfg(r.Derive("cfg"))
		if g.Cfg.WakeupExtra > g.Cfg.DispatchToReady+g.Cfg.CompleteToCommit {
			g.Cfg.WakeupExtra = 0 // windowed-exactness precondition
		}
		lanes := []Ideal{
			{}, // binary baseline lane
			{Global: randomFlags(r)},
			{Global: randomFlags(r) | IdealDMiss, Scale: randomScale(r)},
			{Global: AllFlags, Scale: ScaleUniform(AllFlags, Alpha(r.Intn(257)))},
		}
		we, err := NewWindowEvalIdeals(g.Cfg, lanes, n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		block := 1 + r.Intn(60)
		for _, win := range graphWindows(g, block) {
			if err := we.Feed(context.Background(), win); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		got := we.ExecTimes()
		for w, id := range lanes {
			if want := g.ExecTime(id); got[w] != want {
				t.Fatalf("seed %d lane %d (block %d): windowed %d, whole-graph %d (ideal %+v)",
					seed, w, block, got[w], want, id)
			}
		}
	}
}

// TestWindowEvalIdealsRejectsPerInst: windowed lanes have no
// per-instruction identity, so a mask must be rejected up front.
func TestWindowEvalIdealsRejectsPerInst(t *testing.T) {
	_, err := NewWindowEvalIdeals(DefaultConfig(), []Ideal{
		{Global: IdealDL1},
		{PerInst: make([]Flags, 10)},
	}, 10)
	if err == nil {
		t.Fatal("want error for per-instruction lane")
	}
}
