package fleet

import (
	"sync/atomic"

	"icost/internal/stats"
)

// metrics is the aggregator's observability state — atomics only, the
// ingest hot path never takes a lock to count.
type metrics struct {
	ingestBatches atomic.Int64
	ingestSigs    atomic.Int64
	ingestDetails atomic.Int64
	ingestInsts   atomic.Int64
	ingestErrors  atomic.Int64
	evictions     atomic.Int64

	queries      atomic.Int64
	queryErrors  atomic.Int64
	estimates    atomic.Int64
	memoHits     atomic.Int64
	calibrations atomic.Int64

	ingestLatency stats.LatencyHist
	queryLatency  stats.LatencyHist
}

// Snapshot is the aggregator's point-in-time metrics export, served
// by icostd under the /metrics "fleet" section (flat JSON, counters
// with conventional _total suffixes).
type Snapshot struct {
	IngestBatchesTotal int64 `json:"fleet_ingest_batches_total"`
	IngestSigsTotal    int64 `json:"fleet_ingest_sigs_total"`
	IngestDetailsTotal int64 `json:"fleet_ingest_details_total"`
	IngestInstsTotal   int64 `json:"fleet_ingest_insts_total"`
	IngestErrorsTotal  int64 `json:"fleet_ingest_errors_total"`
	// EvictionsTotal counts whole aggregates dropped to hold the
	// fleet's byte budget.
	EvictionsTotal int64 `json:"fleet_evictions_total"`

	QueriesTotal     int64 `json:"fleet_queries_total"`
	QueryErrorsTotal int64 `json:"fleet_query_errors_total"`
	// EstimatesBuiltTotal counts full profiler analyses over merged
	// pools; MemoHitsTotal counts queries served from a generation's
	// memoized estimate without re-stitching fragments.
	EstimatesBuiltTotal int64 `json:"fleet_estimates_built_total"`
	MemoHitsTotal       int64 `json:"fleet_estimate_memo_hits_total"`
	// CalibrationsTotal counts windowed ground-truth analyses run by
	// calibrate queries (memo hits excluded).
	CalibrationsTotal int64 `json:"fleet_calibrations_total"`

	AggregatesLive int   `json:"fleet_aggregates_live"`
	AggregateBytes int64 `json:"fleet_aggregate_bytes"`
	MaxBytes       int64 `json:"fleet_aggregate_max_bytes"`
	HostsSeen      int   `json:"fleet_hosts_seen"`

	IngestP50us int64 `json:"fleet_ingest_p50_us"`
	IngestP95us int64 `json:"fleet_ingest_p95_us"`
	IngestP99us int64 `json:"fleet_ingest_p99_us"`
	QueryP50us  int64 `json:"fleet_query_p50_us"`
	QueryP95us  int64 `json:"fleet_query_p95_us"`
	QueryP99us  int64 `json:"fleet_query_p99_us"`
}

// Metrics snapshots the aggregator's observability state.
func (a *Aggregator) Metrics() Snapshot {
	a.mu.Lock()
	live := a.ll.Len()
	bytes := a.bytes
	hosts := 0
	for el := a.ll.Front(); el != nil; el = el.Next() {
		agg := el.Value.(*aggregate)
		agg.mu.RLock()
		hosts += len(agg.hosts)
		agg.mu.RUnlock()
	}
	a.mu.Unlock()
	return Snapshot{
		IngestBatchesTotal: a.met.ingestBatches.Load(),
		IngestSigsTotal:    a.met.ingestSigs.Load(),
		IngestDetailsTotal: a.met.ingestDetails.Load(),
		IngestInstsTotal:   a.met.ingestInsts.Load(),
		IngestErrorsTotal:  a.met.ingestErrors.Load(),
		EvictionsTotal:     a.met.evictions.Load(),

		QueriesTotal:        a.met.queries.Load(),
		QueryErrorsTotal:    a.met.queryErrors.Load(),
		EstimatesBuiltTotal: a.met.estimates.Load(),
		MemoHitsTotal:       a.met.memoHits.Load(),
		CalibrationsTotal:   a.met.calibrations.Load(),

		AggregatesLive: live,
		AggregateBytes: bytes,
		MaxBytes:       a.cfg.MaxBytes,
		HostsSeen:      hosts,

		IngestP50us: a.met.ingestLatency.Quantile(0.50),
		IngestP95us: a.met.ingestLatency.Quantile(0.95),
		IngestP99us: a.met.ingestLatency.Quantile(0.99),
		QueryP50us:  a.met.queryLatency.Quantile(0.50),
		QueryP95us:  a.met.queryLatency.Quantile(0.95),
		QueryP99us:  a.met.queryLatency.Quantile(0.99),
	}
}
