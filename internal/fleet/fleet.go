// Package fleet is the multi-tenant data plane of the analysis
// service: it turns the paper's shotgun profiler (Section 5) from an
// in-process sampler into a fleet service. The §5 design is explicit
// about the deployment shape — performance-monitoring hardware cheap
// enough to run on *every* production machine, emitting lossy
// signature/detailed samples that software stitches post-mortem.
// This package is the post-mortem side at fleet scale:
//
//   - many hosts stream batched profiler.Samples (the binary framing
//     of profiler.WriteSamples, wrapped in a versioned stream header
//     naming the binary and host group) to an ingestion endpoint;
//   - an online Aggregator merges batches per (binary, seed,
//     host-group) key into a growing sample pool with bounded memory:
//     a byte-budgeted LRU evicts whole aggregates when the fleet's
//     retained samples exceed the budget (lossy collection is the §5
//     contract, so dropping the coldest aggregate is honest);
//   - fleet queries answer cost / icost / breakdown against the
//     *aggregate* profile by running the unmodified reconstruction
//     and analysis pipeline (profiler.New + AnalyzeCtx) over the
//     merged pool — the same estimator that runs on one machine's
//     samples runs on a million machines' worth, with the estimate
//     memoized per aggregate generation so a hot dashboard does not
//     re-stitch fragments on every refresh.
//
// cmd/icostd serves the data plane over HTTP (/ingest, /query with a
// "fleet" target).
package fleet

import "fmt"

// Key identifies one aggregate profile. A "binary" in this repository
// is a generated benchmark program, so its identity is the benchmark
// name plus the generation seed; Group partitions the fleet the way a
// real deployment would (rack, region, release ring) so regressions
// localized to one slice of the fleet stay visible in its aggregate.
type Key struct {
	Binary string
	Seed   uint64
	Group  string
}

// String renders the key as "binary@seed/group".
func (k Key) String() string {
	return fmt.Sprintf("%s@%d/%s", k.Binary, k.Seed, k.Group)
}

// ValidationError marks a malformed ingest header or fleet query —
// the client's fault, mapped to 400 by icostd.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return e.msg }

func errValidation(format string, args ...any) *ValidationError {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// NotFoundError reports a fleet query against an aggregate no host
// has populated (or that the byte budget evicted), mapped to 404.
type NotFoundError struct{ Key Key }

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("fleet: no aggregate for %s", e.Key)
}
