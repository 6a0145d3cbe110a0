package engine

import "context"

// buildForBench adapts the internal build entry point for the cold
// benchmark, so the benchmark body survives signature changes.
func buildForBench(spec SessionSpec) (*session, error) {
	return build(context.Background(), Query{Session: spec, Op: OpExecTime}, nil, new(logStore))
}
