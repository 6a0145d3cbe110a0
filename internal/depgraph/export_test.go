package depgraph

// EvalBatchWidth is EvalBatch at an explicit chunk width, for the
// width sweeps in the external tests and benchmarks.
var EvalBatchWidth = (*Graph).evalBatch
