package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency histogram layout. Values are whole microseconds. Below
// 2^histSubBits µs every value has a bucket of its own; above, each
// power of two [2^e, 2^(e+1)) splits into 2^histSubBits equal
// sub-buckets, so a bucket's largest value is at most 1/8 (12.5%)
// above its smallest. The last bucket absorbs everything from
// 2^histMaxExp µs (~67 s) up.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histMaxExp  = 26
	histBuckets = (histMaxExp-histSubBits+1)*histSub + 1
)

// LatencyHist is a lock-free log-linear latency histogram. Recording
// is O(1): a bit-length, a shift and two atomic increments, with no
// lock and no allocation. The zero value is ready to use.
type LatencyHist struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
}

// Record adds one duration, truncated to whole microseconds.
func (h *LatencyHist) Record(d time.Duration) {
	h.counts[histBucket(d.Microseconds())].Add(1)
	h.total.Add(1)
}

// histBucket maps a value in µs to its bucket index.
func histBucket(us int64) int {
	if us < histSub {
		return int(max(us, 0))
	}
	if us >= 1<<histMaxExp {
		return histBuckets - 1
	}
	e := bits.Len64(uint64(us)) - 1 // us is in [2^e, 2^(e+1))
	sub := int(us>>(e-histSubBits)) - histSub
	return (e-histSubBits+1)*histSub + sub
}

// histBound is the largest value bucket b holds, in µs; for the
// overflow bucket it is the honest lower bound 2^histMaxExp instead,
// since nothing bounds it from above.
func histBound(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	if b == histBuckets-1 {
		return 1 << histMaxExp
	}
	shift := b/histSub - 1 // e - histSubBits
	return (int64(histSub+b%histSub+1) << shift) - 1
}

// Quantile returns the estimated q-quantile (0 < q < 1) in
// microseconds, or 0 when nothing was recorded: the largest value of
// the bucket holding the target rank, so it is never below the true
// quantile and at most 12.5% above it (exact below 16 µs), except
// past the ~67 s overflow boundary, which it reports as 2^26 µs. The
// read is not atomic across buckets; for monitoring that is fine.
func (h *LatencyHist) Quantile(q float64) int64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	var seen int64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen > rank {
			return histBound(b)
		}
	}
	return histBound(histBuckets - 1)
}
