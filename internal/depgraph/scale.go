package depgraph

// Parametric (scale-by-α) idealization. The paper's idealizations are
// binary: an event class is either fully present or fully removed
// (latency → 0, Table 1). The sensitivity line of related work
// instead measures *response curves* — scale a resource's latency by
// a factor α and watch execution time respond. Here every flagged
// category carries a scale factor α ∈ [0,1]: α=1 is the unidealized
// machine and α=0 is the binary zero-out, so removing an event is just
// one endpoint of its response curve.
//
// Representation. α is fixed-point with an 8-bit fraction (Alpha,
// denominator AlphaOne=256), so scaled latencies are integers, walks
// stay integer-exact and reproducible across platforms, and a scale
// vector is a comparable array usable as a memo key. A latency scales
// as round(lat·α) = (lat·m + 128) >> 8, which is exact at both
// endpoints: m=256 yields lat, m=0 yields 0.
//
// Semantics per category:
//
//   - latency components (dl1, dmiss, imiss, shalu, lgalu and the
//     bw contention columns DDBreak/RELat/CCLat) scale continuously;
//   - the win category interpolates the effective re-order window
//     between Window (α=1) and Window×WindowIdealFactor (α=0);
//   - structural zero/unit-latency edges tied to a category (the PP
//     line-sharing edge of dmiss, the FBW/CBW unit edges of bw) stay
//     active for α>0 and vanish only at α=0, matching the binary
//     idealization at the endpoint;
//   - the PD branch-recovery edge scales its latency for α>0 and is
//     dropped at α=0 ("the branch predicts correctly"), again matching
//     the binary endpoint.
//
// Every walk — forward (runInto), backward (latestInto), edge
// enumeration (InEdges) and the multi-lane fold (WindowEval.fold, which
// both the windowed pass and EvalBatch run) — has one kernel, written
// in multiplier form. A flag resolves to a multiplier once per lane
// (scaledLaneOf): AlphaOne when the category is not selected, its α —
// 0 unless a scale says otherwise — when it is. A per-instruction mask
// resolves once per distinct effective flag value (laneTable). Because
// scaleLat is exact at both endpoints, binary idealizations run
// through the same arithmetic bit-identically.

// alphaBits is the fixed-point fraction width of Alpha; alphaHalf the
// rounding term of scaleLat.
const (
	alphaBits = 8
	alphaHalf = 1 << (alphaBits - 1)
)

// Alpha is a fixed-point scale factor in [0,1]: 0 means fully
// idealized (the binary zero-out), AlphaOne means unscaled. Values
// above AlphaOne clamp to AlphaOne.
type Alpha uint16

// AlphaOne is α = 1.0 (no idealization of the flagged category).
const AlphaOne Alpha = 1 << alphaBits

// AlphaOf quantizes x ∈ [0,1] to the nearest representable Alpha,
// clamping outside the interval.
func AlphaOf(x float64) Alpha {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return AlphaOne
	}
	return Alpha(x*float64(AlphaOne) + 0.5)
}

// Float returns the α value as a float64 in [0,1].
func (a Alpha) Float() float64 {
	if a > AlphaOne {
		a = AlphaOne
	}
	return float64(a) / float64(AlphaOne)
}

// mult is the clamped integer multiplier of a.
func (a Alpha) mult() int64 {
	if a > AlphaOne {
		a = AlphaOne
	}
	return int64(a)
}

// scaleLat scales a latency by a fixed-point multiplier m ∈
// [0, AlphaOne] with round-to-nearest: exact at both endpoints and
// monotone in both arguments.
func scaleLat(lat, m int64) int64 {
	return (lat*m + alphaHalf) >> alphaBits
}

// ScaleLatency returns round(lat·α) with the same fixed-point
// rounding the walk kernels use, so callers deriving machine
// configurations from an α (the refutation harness, sweeps) land on
// exactly the latency the graph model assumes.
func ScaleLatency(lat int, a Alpha) int {
	return int(scaleLat(int64(lat), a.mult()))
}

// ScaleVec assigns one Alpha per base category, indexed by flag bit.
// The zero value is all-α=0 — i.e. plain zero-out flags — so every
// existing Ideal literal keeps its exact meaning. An entry is only
// consulted for categories selected by the idealization's flags.
type ScaleVec [NumFlags]Alpha

// IsZero reports whether every entry is zero, i.e. the idealization
// is the binary zero-out.
func (s ScaleVec) IsZero() bool { return s == ScaleVec{} }

// ScaleUniform builds a vector assigning α to every category in f.
func ScaleUniform(f Flags, a Alpha) ScaleVec {
	var s ScaleVec
	for b := 0; b < NumFlags; b++ {
		if f&(1<<b) != 0 {
			s[b] = a
		}
	}
	return s
}

// CanonScale zeroes the entries of categories outside mask: two
// idealizations whose vectors differ only on unselected categories
// are semantically identical, and memo keys built from the canonical
// vector (plus the flags) never split or — with the flags — collide.
func CanonScale(mask Flags, s ScaleVec) ScaleVec {
	var out ScaleVec
	for b := 0; b < NumFlags; b++ {
		if mask&(1<<b) != 0 {
			a := s[b]
			if a > AlphaOne {
				a = AlphaOne
			}
			out[b] = a
		}
	}
	return out
}

// EffWindow is the effective re-order window under win-category scale
// α: Window at α=1, Window×WindowIdealFactor at α=0, rounded linear
// interpolation between.
func (c *Config) EffWindow(a Alpha) int {
	w := c.Window
	ideal := w * c.WindowIdealFactor
	return w + int(scaleLat(int64(ideal-w), AlphaOne.mult()-a.mult()))
}

// scaledLane caches one lane's scale-derived constants: a multiplier
// per latency component (AlphaOne for unselected categories, the
// lane's α for selected ones) and the interpolated window. ep holds
// the EP latency's multiplier per latency class (csr.go). Edge gates
// derive from the multipliers: a structural edge tied to a category
// is active iff its multiplier is nonzero.
type scaledLane struct {
	bwM, icM, dmM, recM int64
	ep                  [numEPClasses]int64
	win                 int
}

// scaledLaneOf resolves the multipliers of one (flags, scale) lane.
func scaledLaneOf(cfg *Config, f Flags, s ScaleVec) scaledLane {
	m := func(fl Flags, b int) int64 {
		if f&fl == 0 {
			return int64(AlphaOne)
		}
		return s[b].mult()
	}
	l := scaledLane{
		dmM:  m(IdealDMiss, 1),
		icM:  m(IdealICache, 2),
		recM: m(IdealBMisp, 3),
		bwM:  m(IdealBW, 5),
		ep: [numEPClasses]int64{
			epClassDL1:   m(IdealDL1, 0),
			epClassShort: m(IdealShortALU, 6),
			epClassLong:  m(IdealLongALU, 7),
			epClassFixed: int64(AlphaOne),
		},
		win: cfg.Window,
	}
	if f&IdealWindow != 0 {
		l.win = cfg.EffWindow(s[4])
	}
	return l
}

// laneTable resolves lanes of one scale vector by effective flags:
// entry f holds scaledLaneOf(cfg, f, s), filled on first use (a zero
// win marks an empty entry; every resolved window is at least 1). A
// walk with a per-instruction mask thus resolves each distinct flag
// value once, however often the mask switches between them. The
// scalar walks keep their table on the stack, so they stay
// allocation-free; the fold shares one among the masked lanes of each
// scale vector.
type laneTable struct {
	cfg *Config
	s   ScaleVec
	tab [AllFlags + 1]scaledLane
}

// of returns the lane of effective flags f. Flag bits beyond the eight
// categories select nothing, so they are dropped from the index.
func (lt *laneTable) of(f Flags) *scaledLane {
	if ln := &lt.tab[uint8(f)]; ln.win != 0 {
		return ln
	}
	return lt.fill(f)
}

// fill resolves the empty entry of flags f. It stays out of line so
// that the lookup in of inlines into the kernels.
//
//go:noinline
func (lt *laneTable) fill(f Flags) *scaledLane {
	ln := &lt.tab[uint8(f)]
	*ln = scaledLaneOf(lt.cfg, f, lt.s)
	return ln
}
