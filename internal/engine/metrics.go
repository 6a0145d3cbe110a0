package engine

import (
	"sync/atomic"

	"icost/internal/stats"
)

// batchHistBuckets is the number of batch-size histogram buckets:
// bucket i counts windowed passes with lane count in
// [2^i, 2^(i+1)), so the range spans 1 .. 128+ lanes.
const batchHistBuckets = 8

// metrics is the engine's observability state: everything is atomic,
// so the hot path never takes a lock to count.
type metrics struct {
	queries       atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	queueRejects  atomic.Int64
	errors        atomic.Int64
	canceled      atomic.Int64
	queryTimeouts atomic.Int64

	sessionsBuilt   atomic.Int64
	sessionsEvicted atomic.Int64
	buildRetries    atomic.Int64
	buildFailures   atomic.Int64
	windowedBuilds  atomic.Int64
	// windowedBuildLanes counts the lanes build passes were asked to
	// fold. windowedRefolds and windowedRefoldLanes count the passes run
	// after a session's build — analyzer memo misses and sensitivity
	// curves — and the lanes they were asked to fold; windowedReplays
	// counts those that replayed the session's block log instead of
	// re-simulating.
	windowedBuildLanes  atomic.Int64
	windowedRefolds     atomic.Int64
	windowedRefoldLanes atomic.Int64
	windowedReplays     atomic.Int64

	snapshotsSaved     atomic.Int64
	snapshotsLoaded    atomic.Int64
	snapshotLoadErrors atomic.Int64

	inFlight atomic.Int64
	latency  stats.LatencyHist

	// Cold-path pipeline instrumentation: the session-build wall-time
	// histogram plus per-stage time totals of every simulated pass
	// (builds, passes without a log, slack). gen/sim are productive
	// time in the producer (trace generation) and consumer
	// (simulation); the stall counters are time each side spent
	// blocked on the segment channel — together they show whether the
	// pipeline overlaps or serializes.
	sessionBuild   stats.LatencyHist
	coldGenNS      atomic.Int64
	coldGenStallNS atomic.Int64
	coldSimNS      atomic.Int64
	coldSimStallNS atomic.Int64

	batches    atomic.Int64
	batchLanes atomic.Int64
	batchHist  [batchHistBuckets]atomic.Int64
}

// recordBatch counts one pass a session folded, of lanes lanes. It
// must stay lock-free: one power-set query can fire it from several
// worker goroutines.
func (m *metrics) recordBatch(lanes int) {
	m.batches.Add(1)
	m.batchLanes.Add(int64(lanes))
	b := 0
	for l := lanes; l > 1 && b < batchHistBuckets-1; l >>= 1 {
		b++
	}
	m.batchHist[b].Add(1)
}

// Snapshot is a point-in-time metrics export, shaped for the icostd
// /metrics endpoint (flat JSON, counter names with conventional
// _total suffixes).
type Snapshot struct {
	QueriesTotal      int64 `json:"queries_total"`
	CacheHitsTotal    int64 `json:"cache_hits_total"`
	CacheMissesTotal  int64 `json:"cache_misses_total"`
	QueueRejectsTotal int64 `json:"queue_rejects_total"`
	ErrorsTotal       int64 `json:"errors_total"`
	CanceledTotal     int64 `json:"canceled_total"`
	// QueryTimeoutsTotal counts queries aborted by the server-side
	// Config.QueryTimeout deadline (also included in CanceledTotal).
	QueryTimeoutsTotal int64 `json:"query_timeouts_total"`

	SessionsBuiltTotal   int64 `json:"sessions_built_total"`
	SessionsEvictedTotal int64 `json:"sessions_evicted_total"`
	SessionsLive         int   `json:"sessions_live"`
	// BuildRetriesTotal counts session-build attempts re-run after a
	// transient failure; BuildFailuresTotal counts builds that failed
	// after all retries (and were negatively cached for BuildFailTTL).
	BuildRetriesTotal  int64 `json:"session_build_retries_total"`
	BuildFailuresTotal int64 `json:"session_build_failures_total"`
	// WindowedBuildsTotal counts session builds; every session is
	// built through the windowed pipeline.
	WindowedBuildsTotal int64 `json:"windowed_builds_total"`
	// WindowedBuildLanesTotal sums the lanes builds folded: the base
	// and the idealizations read by the query that opened each session.
	// WindowedRefoldsTotal counts the passes run after a build: one per
	// analyzer memo-miss batch, or more when the batch's rings would
	// pass the engine's fold budget.
	// WindowedRefoldLanesTotal sums the lanes they were asked to fold (a
	// pass adds a base lane for its self-check when none was asked for;
	// it is not counted).
	WindowedBuildLanesTotal  int64 `json:"windowed_build_lanes_total"`
	WindowedRefoldsTotal     int64 `json:"windowed_refolds_total"`
	WindowedRefoldLanesTotal int64 `json:"windowed_refold_lanes_total"`
	// WindowedReplaysTotal counts the re-folds (included in
	// WindowedRefoldsTotal) that replayed the session's recorded block
	// log instead of regenerating and re-simulating its stream.
	// WindowedLogBytes is the memory of the block logs the engine
	// holds, at most one per session, under a 1.5 MiB budget that
	// always keeps the newest.
	WindowedReplaysTotal int64 `json:"windowed_replays_total"`
	WindowedLogBytes     int64 `json:"windowed_log_bytes"`

	// SnapshotsSavedTotal / SnapshotsLoadedTotal count sessions written
	// to and restored from durable snapshots; SnapshotLoadErrorsTotal
	// counts snapshot files skipped at load (corrupt, unreadable, or
	// racing a live session).
	SnapshotsSavedTotal     int64 `json:"session_snapshots_saved_total"`
	SnapshotsLoadedTotal    int64 `json:"session_snapshots_loaded_total"`
	SnapshotLoadErrorsTotal int64 `json:"session_snapshot_load_errors_total"`

	ResultCacheEntries int   `json:"result_cache_entries"`
	ResultCacheBytes   int64 `json:"result_cache_bytes"`
	ResultCacheMax     int64 `json:"result_cache_max_bytes"`

	Workers    int `json:"workers"`
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	LatencyP50us int64 `json:"latency_p50_us"`
	LatencyP95us int64 `json:"latency_p95_us"`
	LatencyP99us int64 `json:"latency_p99_us"`

	// Cold-path pipeline: session-build wall-time quantiles and the
	// cumulative per-stage split (productive vs channel-blocked time in
	// the trace producer and the simulation consumer).
	SessionBuildP50us int64 `json:"session_build_p50_us"`
	SessionBuildP95us int64 `json:"session_build_p95_us"`
	SessionBuildP99us int64 `json:"session_build_p99_us"`
	ColdGenNS         int64 `json:"coldpath_gen_ns_total"`
	ColdGenStallNS    int64 `json:"coldpath_gen_stall_ns_total"`
	ColdSimNS         int64 `json:"coldpath_sim_ns_total"`
	ColdSimStallNS    int64 `json:"coldpath_sim_stall_ns_total"`

	// Batched evaluation: how many windowed passes sessions folded
	// (builds and memo misses alike), the total lanes across them, and
	// a log-scaled size distribution (bucket i = passes with
	// 2^i .. 2^(i+1)-1 lanes).
	BatchesTotal    int64   `json:"batches_total"`
	BatchLanesTotal int64   `json:"batch_lanes_total"`
	BatchSizeHist   []int64 `json:"batch_size_hist"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}
