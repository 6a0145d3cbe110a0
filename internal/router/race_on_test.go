//go:build race

package router

// raceEnabled reports whether this test binary was built with the race
// detector. TestShardBenchGuard skips under -race: detector overhead
// on a small runner swamps the injected per-query service time, so the
// comparison would measure instrumentation cost instead of topology.
// The guard has its own non-race step in `make ci` and CI.
const raceEnabled = true
