package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// The request lifecycle phases the service times, in order: enqueue
// (admission -> engine run start), the engine run itself, and respond (run
// end -> response written). The names and order are part of the /metrics
// layout MergeSnapshots relies on (pinned by testdata/metrics_layout.json).
const (
	phaseEnqueue = iota
	phaseRun
	phaseRespond
	numPhases
)

var phaseNames = [numPhases]string{"enqueue", "run", "respond"}

// latencyAgg is one phase's aggregate: the flat fields plus streaming
// p50/p95 estimates from the fixed-bucket histogram behind them (min, max
// and the quantiles are meaningful only when Count > 0). The buckets exist
// because flat min/max/mean give no tail estimate, and because bucket
// counts merge exactly across replicas (MergeSnapshots).
type latencyAgg struct {
	Count  uint64 `json:"count"`
	SumNS  int64  `json:"sum_ns"`
	MinNS  int64  `json:"min_ns"`
	MaxNS  int64  `json:"max_ns"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P95NS  int64  `json:"p95_ns"`
	// BucketsNS is the raw bucket layout (histBuckets log-spaced counts,
	// see hist.go). Snapshots carry it so an aggregator — the sbgate
	// /metrics merge — can sum histograms bucket-wise across replicas and
	// re-derive exact fleet-wide quantile estimates; every replica shares
	// the one fixed layout, so the merge loses nothing.
	BucketsNS []uint64 `json:"buckets_ns,omitempty"`

	hist latencyHist
}

func (a *latencyAgg) add(d time.Duration) {
	a.hist.add(d)
	a.Count = a.hist.count
	a.SumNS = a.hist.sum
	a.MinNS = a.hist.min
	a.MaxNS = a.hist.max
}

// finalize fills the derived fields for a snapshot copy.
func (a *latencyAgg) finalize() {
	a.BucketsNS = make([]uint64, histBuckets)
	copy(a.BucketsNS, a.hist.counts[:])
	if a.Count == 0 {
		return
	}
	a.MeanNS = a.SumNS / int64(a.Count)
	a.P50NS = a.hist.quantile(0.50)
	a.P95NS = a.hist.quantile(0.95)
}

// Request outcome kinds recorded at respond time.
const (
	outcomeCompleted = iota
	outcomeCanceled
	outcomeFailed
)

// ClassCounters is one priority class's request accounting.
type ClassCounters struct {
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Canceled  uint64 `json:"canceled"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
}

// AdmissionSnapshot is the /metrics view of admission: how many requests
// each class may have admitted and not yet answered. Both limits are fixed
// when the server is built.
type AdmissionSnapshot struct {
	Limit     int64 `json:"limit"`
	BulkLimit int64 `json:"bulk_limit"`
}

// Metrics aggregates the service's counters: request outcomes (total and
// per priority class), cache traffic, per-phase latency histograms and
// the engine-level session summary (every instance's observer events fold
// into one stats.SessionSummary, so the /metrics engine block reports
// rounds, moves, messages and the moves-per-round histogram across all
// served runs).
type Metrics struct {
	mu        sync.Mutex
	started   time.Time
	requests  uint64 // accepted (admitted, cache-served or coalesced)
	completed uint64 // responses that delivered a successful result
	canceled  uint64 // client disconnected before the response finished
	failed    uint64 // responses that delivered an error outcome
	rejected  uint64 // refused at admission (limit reached or draining)
	classes   [numClasses]ClassCounters
	coalesced uint64 // requests served as singleflight followers
	bypass    uint64 // requests that opted out of the cache
	peers     uint64 // requests answered by adopting a peer replica's recording
	phases    [numPhases]latencyAgg
	engine    stats.SessionSummary

	// cache and admission are set by the server so the snapshot can fold
	// them in; unset in isolated unit tests.
	cache     *resultCache
	admission AdmissionSnapshot
}

func newMetrics() *Metrics {
	return &Metrics{started: time.Now()}
}

// OnEvent implements core.Observer: every served instance tees its event
// stream here (serialised by the mutex — instances run concurrently).
func (m *Metrics) OnEvent(ev core.Event) {
	m.mu.Lock()
	m.engine.OnEvent(ev)
	m.mu.Unlock()
}

// recordAccept files one accepted request — admitted to the engine path,
// served from cache, or attached to an in-flight run.
func (m *Metrics) recordAccept(class int) {
	m.mu.Lock()
	m.requests++
	m.classes[class].Accepted++
	m.mu.Unlock()
}

func (m *Metrics) recordReject(class int) {
	m.mu.Lock()
	m.rejected++
	m.classes[class].Rejected++
	m.mu.Unlock()
}

func (m *Metrics) recordCoalesced() {
	m.mu.Lock()
	m.coalesced++
	m.mu.Unlock()
}

func (m *Metrics) recordBypass() {
	m.mu.Lock()
	m.bypass++
	m.mu.Unlock()
}

func (m *Metrics) recordPeer() {
	m.mu.Lock()
	m.peers++
	m.mu.Unlock()
}

// recordPhases files an engine request's enqueue and run phase durations
// (execute calls it once per admitted runReq).
func (m *Metrics) recordPhases(r *runReq) {
	m.mu.Lock()
	m.phases[phaseEnqueue].add(r.tRunStart.Sub(r.tEnqueue))
	m.phases[phaseRun].add(r.tRunEnd.Sub(r.tRunStart))
	m.mu.Unlock()
}

// recordDone files one response's outcome. Unlike the phase records (which
// exist only for engine runs), every served request — leader, follower,
// cache hit or bypass — is recorded here exactly once; only a follower of
// a leader refused at admission is filed by recordReject instead.
func (m *Metrics) recordDone(class, outcome int) {
	m.mu.Lock()
	switch outcome {
	case outcomeCompleted:
		m.completed++
		m.classes[class].Completed++
	case outcomeCanceled:
		m.canceled++
		m.classes[class].Canceled++
	default:
		m.failed++
		m.classes[class].Failed++
	}
	m.mu.Unlock()
}

// recordRespond files the final phase: run end (or cache lookup) to
// response fully written.
func (m *Metrics) recordRespond(d time.Duration) {
	m.mu.Lock()
	m.phases[phaseRespond].add(d)
	m.mu.Unlock()
}

// MetricsSnapshot is the JSON document of GET /metrics.
type MetricsSnapshot struct {
	UptimeNS  int64                    `json:"uptime_ns"`
	Requests  uint64                   `json:"requests"`
	Completed uint64                   `json:"completed"`
	Canceled  uint64                   `json:"canceled"`
	Failed    uint64                   `json:"failed"`
	Rejected  uint64                   `json:"rejected"`
	Classes   map[string]ClassCounters `json:"classes"`
	Cache     CacheSnapshot            `json:"cache"`
	Admission AdmissionSnapshot        `json:"admission"`
	Latency   map[string]latencyAgg    `json:"latency_ns"`
	Engine    stats.SessionSummary     `json:"engine"`

	// Deprecated: Batches is always zero; requests no longer batch. It is
	// kept only because e2ebench/serve.go still reads it.
	Batches uint64 `json:"-"`
	// Deprecated: Batched is always zero; requests no longer batch. It is
	// kept only because e2ebench/serve.go still reads it.
	Batched uint64 `json:"-"`
}

// Snapshot returns a consistent copy of every counter.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	snap := MetricsSnapshot{
		UptimeNS:  int64(time.Since(m.started)),
		Requests:  m.requests,
		Completed: m.completed,
		Canceled:  m.canceled,
		Failed:    m.failed,
		Rejected:  m.rejected,
		Classes:   make(map[string]ClassCounters, numClasses),
		Admission: m.admission,
		Latency:   make(map[string]latencyAgg, numPhases),
		Engine:    m.engine,
	}
	for c := 0; c < numClasses; c++ {
		snap.Classes[classNames[c]] = m.classes[c]
	}
	// Deep-copy the lazily-allocated histograms so the snapshot cannot race
	// with later OnEvent folds.
	snap.Engine.MovesHist = copyHist(m.engine.MovesHist)
	snap.Engine.WaveHist = copyHist(m.engine.WaveHist)
	for p := 0; p < numPhases; p++ {
		a := m.phases[p]
		a.finalize()
		snap.Latency[phaseNames[p]] = a
	}
	coalesced, bypass, peers := m.coalesced, m.bypass, m.peers
	cache := m.cache
	m.mu.Unlock()

	if cache != nil {
		snap.Cache = cache.snapshot()
	}
	snap.Cache.Coalesced = coalesced
	snap.Cache.Bypass = bypass
	snap.Cache.PeerHits = peers
	return snap
}

func copyHist(h stats.Hist) stats.Hist {
	if h == nil {
		return nil
	}
	out := make(stats.Hist, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. The phase latencies render as cumulative histogram series
// (_bucket/_sum/_count with le labels) so a scraper can derive the same
// quantile estimates the JSON snapshot precomputes.
func (s MetricsSnapshot) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# TYPE sbserver_uptime_seconds gauge\n")
	fmt.Fprintf(w, "sbserver_uptime_seconds %g\n", time.Duration(s.UptimeNS).Seconds())
	fmt.Fprintf(w, "# TYPE sbserver_requests_total counter\n")
	for _, c := range []struct {
		state string
		n     uint64
	}{
		{"accepted", s.Requests}, {"completed", s.Completed},
		{"canceled", s.Canceled}, {"failed", s.Failed}, {"rejected", s.Rejected},
	} {
		fmt.Fprintf(w, "sbserver_requests_total{state=%q} %d\n", c.state, c.n)
	}
	fmt.Fprintf(w, "# TYPE sbserver_class_requests_total counter\n")
	for _, name := range classNames {
		c := s.Classes[name]
		for _, st := range []struct {
			state string
			n     uint64
		}{
			{"accepted", c.Accepted}, {"completed", c.Completed},
			{"canceled", c.Canceled}, {"failed", c.Failed}, {"rejected", c.Rejected},
		} {
			fmt.Fprintf(w, "sbserver_class_requests_total{class=%q,state=%q} %d\n", name, st.state, st.n)
		}
	}
	fmt.Fprintf(w, "# TYPE sbserver_cache_requests_total counter\n")
	for _, c := range []struct {
		state string
		n     uint64
	}{
		{"hit", s.Cache.Hits}, {"miss", s.Cache.Misses},
		{"coalesced", s.Cache.Coalesced}, {"bypass", s.Cache.Bypass},
		{"eviction", s.Cache.Evictions}, {"peer_hit", s.Cache.PeerHits},
		{"peek_hit", s.Cache.PeekHits}, {"peek_miss", s.Cache.PeekMisses},
	} {
		fmt.Fprintf(w, "sbserver_cache_requests_total{state=%q} %d\n", c.state, c.n)
	}
	fmt.Fprintf(w, "# TYPE sbserver_cache_bytes gauge\nsbserver_cache_bytes %d\n", s.Cache.Bytes)
	fmt.Fprintf(w, "# TYPE sbserver_cache_entries gauge\nsbserver_cache_entries %d\n", s.Cache.Entries)
	fmt.Fprintf(w, "# TYPE sbserver_admission_limit gauge\nsbserver_admission_limit %d\n", s.Admission.Limit)
	fmt.Fprintf(w, "# TYPE sbserver_admission_bulk_limit gauge\nsbserver_admission_bulk_limit %d\n", s.Admission.BulkLimit)
	fmt.Fprintf(w, "# TYPE sbserver_phase_latency_ns histogram\n")
	for _, name := range phaseNames {
		a := s.Latency[name]
		// Serialized buckets when present (decoded or merged snapshots have
		// no live hist), the in-process hist otherwise.
		counts := a.BucketsNS
		if len(counts) != histBuckets {
			counts = a.hist.counts[:]
		}
		var cum uint64
		for i := 0; i < histBuckets; i++ {
			cum += counts[i]
			le := fmt.Sprintf("%d", histUpperBound(i))
			if i == histBuckets-1 {
				le = "+Inf"
			}
			if counts[i] == 0 && i < histBuckets-1 {
				continue // keep the exposition short: skip interior empties
			}
			fmt.Fprintf(w, "sbserver_phase_latency_ns_bucket{phase=%q,le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(w, "sbserver_phase_latency_ns_sum{phase=%q} %d\n", name, a.SumNS)
		fmt.Fprintf(w, "sbserver_phase_latency_ns_count{phase=%q} %d\n", name, a.Count)
		fmt.Fprintf(w, "sbserver_phase_latency_ns{phase=%q,quantile=\"0.5\"} %d\n", name, a.P50NS)
		fmt.Fprintf(w, "sbserver_phase_latency_ns{phase=%q,quantile=\"0.95\"} %d\n", name, a.P95NS)
	}
	fmt.Fprintf(w, "# TYPE sbserver_engine_rounds_total counter\nsbserver_engine_rounds_total %d\n", s.Engine.Rounds)
	fmt.Fprintf(w, "# TYPE sbserver_engine_motions_total counter\nsbserver_engine_motions_total %d\n", s.Engine.Motions)
	fmt.Fprintf(w, "# TYPE sbserver_engine_moves_elected_total counter\nsbserver_engine_moves_elected_total %d\n", s.Engine.MovesElected)
	fmt.Fprintf(w, "# TYPE sbserver_engine_messages_total counter\nsbserver_engine_messages_total %d\n", s.Engine.MessagesSent)
	fmt.Fprintf(w, "# TYPE sbserver_engine_successes_total counter\nsbserver_engine_successes_total %d\n", s.Engine.Successes)
	if len(s.Engine.MovesHist) > 0 {
		fmt.Fprintf(w, "# TYPE sbserver_engine_moves_per_round gauge\n")
		keys := make([]int, 0, len(s.Engine.MovesHist))
		for k := range s.Engine.MovesHist {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "sbserver_engine_moves_per_round{moves=\"%d\"} %d\n", k, s.Engine.MovesHist[k])
		}
	}
}

// interface check
var _ core.Observer = (*Metrics)(nil)
