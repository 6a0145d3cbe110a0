package stats

import (
	"math/rand"
	"testing"
	"time"
)

func TestLatencyHist(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty hist nonzero quantile")
	}
	for i := 0; i < 100; i++ {
		h.Record(100e3) // 100µs -> bucket [96, 104), reported as 103µs
	}
	if q := h.Quantile(0.5); q != 103 {
		t.Fatalf("p50 = %dµs, want 103", q)
	}
	h.Record(1 << 40) // absurd duration lands in the overflow bucket
	if q := h.Quantile(0.999); q < 103 {
		t.Fatalf("p99.9 = %dµs after overflow record", q)
	}
}

// TestLatencyHistBoundedOverstatement: for every recorded value below
// the overflow boundary, each reported quantile of a histogram holding
// only that value is at least the value and at most 12.5% above it:
// exhaustively to 2^16 µs, then at every bucket edge and at random
// values up to 2^26 µs.
func TestLatencyHistBoundedOverstatement(t *testing.T) {
	check := func(us int64) {
		t.Helper()
		var h LatencyHist
		h.Record(time.Duration(us) * time.Microsecond)
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
			got := h.Quantile(q)
			if got < us || 8*got > 9*us {
				t.Fatalf("recorded %dµs, quantile(%v) = %dµs: outside [v, 1.125v]", us, q, got)
			}
		}
	}
	for us := int64(0); us < 1<<16; us++ {
		check(us)
	}
	for e := 16; e < histMaxExp; e++ {
		for s := int64(0); s < histSub; s++ {
			lo := (histSub + s) << (e - histSubBits)
			check(lo)
			check(lo + 1<<(e-histSubBits) - 1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		check(rng.Int63n(1 << histMaxExp))
	}
}

func TestLatencyHistRecordAllocs(t *testing.T) {
	var h LatencyHist
	if n := testing.AllocsPerRun(100, func() { h.Record(123 * time.Microsecond) }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}
