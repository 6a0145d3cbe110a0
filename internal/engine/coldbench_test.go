package engine

import (
	"testing"
)

// BenchmarkSessionBuild isolates the cold path: one session build
// (workload generation, a windowed simulation that records the block
// log, and the fold of the base lane) per iteration, so allocation
// reuse across builds is visible in bytes/op. This is the number
// BENCH_coldpath.json tracks; run via `make bench-cold`.
func BenchmarkSessionBuild(b *testing.B) {
	spec, err := benchSpec("mcf").normalize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildForBench(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}
