package server

import (
	"sort"
	"sync"
	"time"
)

// Request priority classes. Interactive is the default: streamed runs a
// human (or a latency-sensitive caller) is waiting on. Bulk (?class=bulk)
// is for parameter sweeps and batch jobs that care about aggregate
// throughput, not tail latency. The split is weighted-fair at admission:
// interactive may use the controller's whole limit, bulk only BulkShare of
// it, so a sweep can saturate idle capacity but can never starve
// interactive requests of admission slots.
const (
	classInteractive = iota
	classBulk
	numClasses
)

var classNames = [numClasses]string{"interactive", "bulk"}

// admission is the SLO-driven AIMD admission controller. It replaces the
// static QueueCap pending cap: the limit starts at the cap and, when a
// target SLO is configured, adapts to the live run-phase latency — additive
// increase (+1) while the windowed p95 is within the SLO, multiplicative
// decrease (x0.7) when it overshoots. Overload therefore sheds load as fast
// 429s (cheap for clients to retry) instead of letting the queue grow until
// every admitted request blows the SLO. With SLO zero the controller is
// inert and the limit stays pinned at the static cap.
type admission struct {
	slo       time.Duration
	maxLimit  int
	minLimit  int
	bulkShare float64

	mu    sync.Mutex
	limit float64
	// win is a ring of the most recent interactive run-phase latencies;
	// the controller adjusts on its p95 once per adjustEvery observations.
	win         [admissionWindow]int64
	n, idx      int
	sinceAdjust int
	scratch     []int64
	lastP95     int64
}

const (
	admissionWindow  = 128 // samples in the sliding latency window
	admissionMinWin  = 16  // observations before the first adjustment
	adjustEvery      = 8   // observations between adjustments
	admissionBackoff = 0.7 // multiplicative-decrease factor
	admissionFloor   = 8   // lowest adaptive limit (capped at the queue cap)
)

func newAdmission(slo time.Duration, queueCap int, bulkShare float64) *admission {
	minLimit := min(admissionFloor, queueCap)
	if bulkShare <= 0 || bulkShare > 1 {
		bulkShare = 0.5
	}
	return &admission{
		slo:       slo,
		maxLimit:  queueCap,
		minLimit:  minLimit,
		bulkShare: bulkShare,
		limit:     float64(queueCap),
		scratch:   make([]int64, 0, admissionWindow),
	}
}

// observe feeds one completed interactive run's run-phase latency and
// periodically re-tunes the limit against the SLO.
func (a *admission) observe(d time.Duration) {
	if a.slo <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.win[a.idx] = int64(d)
	a.idx = (a.idx + 1) % admissionWindow
	if a.n < admissionWindow {
		a.n++
	}
	a.sinceAdjust++
	if a.sinceAdjust < adjustEvery || a.n < admissionMinWin {
		return
	}
	a.sinceAdjust = 0
	a.scratch = append(a.scratch[:0], a.win[:a.n]...)
	sort.Slice(a.scratch, func(i, j int) bool { return a.scratch[i] < a.scratch[j] })
	a.lastP95 = a.scratch[len(a.scratch)*95/100]
	if a.lastP95 > int64(a.slo) {
		a.limit *= admissionBackoff
	} else {
		a.limit++
	}
	if a.limit < float64(a.minLimit) {
		a.limit = float64(a.minLimit)
	}
	if a.limit > float64(a.maxLimit) {
		a.limit = float64(a.maxLimit)
	}
}

// limitFor returns the class's current admission limit: the full adaptive
// limit for interactive, the bulk share of it (at least one slot) for bulk.
func (a *admission) limitFor(class int) int64 {
	a.mu.Lock()
	l := a.limit
	a.mu.Unlock()
	if class == classBulk {
		l *= a.bulkShare
		if l < 1 {
			l = 1
		}
	}
	return int64(l)
}

// AdmissionSnapshot is the /metrics view of the controller.
type AdmissionSnapshot struct {
	SLONS            int64 `json:"slo_ns"`
	Limit            int64 `json:"limit"`
	BulkLimit        int64 `json:"bulk_limit"`
	MaxLimit         int   `json:"max_limit"`
	MinLimit         int   `json:"min_limit"`
	WindowP95NS      int64 `json:"window_p95_ns"`
	WindowSamples    int   `json:"window_samples"`
	Adaptive         bool  `json:"adaptive"`
	BulkSharePercent int   `json:"bulk_share_percent"`
}

func (a *admission) snapshot() AdmissionSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	bulk := a.limit * a.bulkShare
	if bulk < 1 {
		bulk = 1
	}
	return AdmissionSnapshot{
		SLONS:            int64(a.slo),
		Limit:            int64(a.limit),
		BulkLimit:        int64(bulk),
		MaxLimit:         a.maxLimit,
		MinLimit:         a.minLimit,
		WindowP95NS:      a.lastP95,
		WindowSamples:    a.n,
		Adaptive:         a.slo > 0,
		BulkSharePercent: int(a.bulkShare * 100),
	}
}
