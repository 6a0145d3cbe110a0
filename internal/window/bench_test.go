package window

import (
	"context"
	"fmt"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
)

// BenchmarkPass times one windowed pass over a long-trace session's
// stream (gcc, 300k timed instructions after 30k of warmup,
// 4096-instruction blocks, the Table 6 machine) three ways: simulated,
// simulated while recording its block log (a build), and replayed from
// that log (a re-fold). 16 lanes is what a default breakdown's build
// folds; 9 what a sensitivity query over three categories re-folds
// after it; 1 leaves the producer's share of a pass.
func BenchmarkPass(b *testing.B) {
	ctx := context.Background()
	req := Request{Bench: "gcc", Seed: 42, TraceLen: 300_000, Warmup: 30_000, WindowInsts: 4096, Sim: ooo.DefaultConfig()}
	for _, n := range []int{1, 9, 16} {
		ids := make([]depgraph.Ideal, n)
		for k := range ids {
			ids[k].Global = depgraph.Flags(k)
		}
		var log Log
		if _, err := Record(ctx, req, ids, &log); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"simulate", "record", "replay"} {
			b.Run(fmt.Sprintf("%s/lanes=%d", mode, n), func(b *testing.B) {
				var rec Log
				for i := 0; i < b.N; i++ {
					var err error
					switch mode {
					case "simulate":
						_, err = AnalyzeIdeals(ctx, req, ids)
					case "record":
						_, err = Record(ctx, req, ids, &rec)
					case "replay":
						_, err = Replay(ctx, &log, ids)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
