package server

import "time"

// The service's latency histograms use one fixed, log-spaced bucket layout:
// upper bounds doubling from 16µs, which spans microsecond enqueue waits
// up to minute-scale runs in histBuckets buckets. Fixed buckets keep
// the fold O(1) per sample and make snapshots mergeable; the resolution
// is 2x per bucket, interpolated.
const (
	histBuckets  = 28
	histFirstUB  = int64(16 * time.Microsecond) // upper bound of bucket 0
	histLastBase = histFirstUB << (histBuckets - 2)
)

// histBucketFor maps a non-negative duration in ns to its bucket index.
// The final bucket is the +Inf overflow.
func histBucketFor(ns int64) int {
	ub := histFirstUB
	for i := 0; i < histBuckets-1; i++ {
		if ns <= ub {
			return i
		}
		ub <<= 1
	}
	return histBuckets - 1
}

// histUpperBound returns bucket i's upper bound in ns (the overflow bucket
// reports the largest finite bound; WritePrometheus renders it as +Inf).
func histUpperBound(i int) int64 {
	if i >= histBuckets-1 {
		return histLastBase * 2
	}
	return histFirstUB << i
}

// latencyHist is a fixed-bucket streaming histogram: counts per bucket plus
// the flat aggregate, from which Quantile interpolates p50/p95 estimates.
// Not self-locking — the Metrics mutex serializes it.
type latencyHist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

func (h *latencyHist) add(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if h.count == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.count++
	h.sum += ns
	h.counts[histBucketFor(ns)]++
}

// quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// inside the bucket holding the rank, clamped to the observed min/max so
// small samples don't report a bucket bound nothing ever hit. Returns 0 on
// an empty histogram.
func (h *latencyHist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		if rank < seen+c {
			lo := int64(0)
			if i > 0 {
				lo = histUpperBound(i - 1)
			}
			hi := histUpperBound(i)
			// Position of the rank within this bucket, interpolated.
			frac := float64(rank-seen+1) / float64(c)
			est := lo + int64(frac*float64(hi-lo))
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
		seen += c
	}
	return h.max
}
