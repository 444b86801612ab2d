package server

import "repro/internal/stats"

// MergeSnapshots folds N replica metrics snapshots into one fleet-wide
// view — the document sbgate serves from its own /metrics. Counters sum;
// the phase latency histograms merge bucket-wise, which is EXACT (not an
// approximation) because every replica uses the identical fixed bucket
// layout (hist.go): the merged histogram is exactly what one replica
// would have recorded had it seen all the samples, and the re-derived
// p50/p95 carry the same interpolation error as a single replica's.
// Admission limits sum (fleet capacity).
func MergeSnapshots(snaps []MetricsSnapshot) MetricsSnapshot {
	var out MetricsSnapshot
	out.Classes = make(map[string]ClassCounters, numClasses)
	out.Latency = make(map[string]latencyAgg, numPhases)
	if len(snaps) == 0 {
		return out
	}
	for _, s := range snaps {
		if s.UptimeNS > out.UptimeNS {
			out.UptimeNS = s.UptimeNS
		}
		out.Requests += s.Requests
		out.Completed += s.Completed
		out.Canceled += s.Canceled
		out.Failed += s.Failed
		out.Rejected += s.Rejected
		for name, c := range s.Classes {
			t := out.Classes[name]
			t.Accepted += c.Accepted
			t.Completed += c.Completed
			t.Canceled += c.Canceled
			t.Failed += c.Failed
			t.Rejected += c.Rejected
			out.Classes[name] = t
		}
		mergeCache(&out.Cache, s.Cache)
		mergeAdmission(&out.Admission, s.Admission)
		mergeEngine(&out.Engine, s.Engine)
	}
	for _, name := range phaseNames {
		aggs := make([]latencyAgg, 0, len(snaps))
		for _, s := range snaps {
			if a, ok := s.Latency[name]; ok {
				aggs = append(aggs, a)
			}
		}
		out.Latency[name] = mergeAggs(aggs)
	}
	return out
}

func mergeCache(dst *CacheSnapshot, s CacheSnapshot) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Coalesced += s.Coalesced
	dst.Bypass += s.Bypass
	dst.Evictions += s.Evictions
	dst.PeekHits += s.PeekHits
	dst.PeekMisses += s.PeekMisses
	dst.PeerHits += s.PeerHits
	dst.Entries += s.Entries
	dst.Bytes += s.Bytes
	dst.MaxBytes += s.MaxBytes
}

func mergeAdmission(dst *AdmissionSnapshot, s AdmissionSnapshot) {
	dst.Limit += s.Limit
	dst.BulkLimit += s.BulkLimit
}

func mergeEngine(dst *stats.SessionSummary, s stats.SessionSummary) {
	dst.Rounds += s.Rounds
	dst.EscapeRounds += s.EscapeRounds
	dst.Decided += s.Decided
	dst.Empty += s.Empty
	dst.MovesElected += s.MovesElected
	dst.BatchRounds += s.BatchRounds
	dst.Motions += s.Motions
	dst.Carries += s.Carries
	dst.Terminations += s.Terminations
	dst.Successes += s.Successes
	dst.MessagesSent += s.MessagesSent
	dst.MessagesDrop += s.MessagesDrop
	dst.EngineEvents += s.EngineEvents
	dst.CandsDropped += s.CandsDropped
	if s.LastVirtualsNS > dst.LastVirtualsNS {
		dst.LastVirtualsNS = s.LastVirtualsNS
	}
	dst.MovesHist = mergeHist(dst.MovesHist, s.MovesHist)
	dst.WaveHist = mergeHist(dst.WaveHist, s.WaveHist)
}

func mergeHist(dst, s stats.Hist) stats.Hist {
	if len(s) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(stats.Hist, len(s))
	}
	for k, v := range s {
		dst[k] += v
	}
	return dst
}

// mergeAggs sums phase aggregates bucket-wise and re-derives the quantile
// estimates from the combined histogram.
func mergeAggs(aggs []latencyAgg) latencyAgg {
	var out latencyAgg
	var h latencyHist
	for _, a := range aggs {
		if a.Count == 0 {
			continue
		}
		if h.count == 0 || a.MinNS < h.min {
			h.min = a.MinNS
		}
		if a.MaxNS > h.max {
			h.max = a.MaxNS
		}
		h.count += a.Count
		h.sum += a.SumNS
		if len(a.BucketsNS) == histBuckets {
			for i, c := range a.BucketsNS {
				h.counts[i] += c
			}
		} else {
			// A snapshot without serialized buckets (older producer): fold
			// its mean so the flat fields stay truthful; quantiles degrade
			// gracefully toward the populated buckets.
			h.counts[histBucketFor(a.MeanNS)] += a.Count
		}
	}
	out.hist = h
	out.Count = h.count
	out.SumNS = h.sum
	out.MinNS = h.min
	out.MaxNS = h.max
	out.finalize()
	return out
}
