package server

import (
	"testing"
	"time"
)

// feed pushes n observations of latency d into the controller.
func feed(a *admission, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		a.observe(d)
	}
}

// TestAdmissionAIMD: the controller backs off multiplicatively while the
// windowed p95 overshoots the SLO, recovers additively once it is back
// within, and never leaves [minLimit, maxLimit].
func TestAdmissionAIMD(t *testing.T) {
	a := newAdmission(10*time.Millisecond, 64, 0.5)
	if got := a.limitFor(classInteractive); got != 64 {
		t.Fatalf("initial limit = %d, want the static cap 64", got)
	}

	// Sustained overshoot: every window p95 is 2x the SLO.
	feed(a, admissionWindow*4, 20*time.Millisecond)
	over := a.limitFor(classInteractive)
	if over != int64(a.minLimit) {
		t.Fatalf("limit after sustained overshoot = %d, want the floor %d", over, a.minLimit)
	}
	if snap := a.snapshot(); snap.WindowP95NS <= int64(a.slo) {
		t.Errorf("window p95 = %dns, want above the %v SLO", snap.WindowP95NS, a.slo)
	}

	// Recovery is additive: adjustEvery observations buy one slot.
	feed(a, admissionWindow, time.Millisecond) // flush the window of slow samples
	recovered := a.limitFor(classInteractive)
	if recovered <= over {
		t.Fatalf("limit did not recover: %d -> %d", over, recovered)
	}
	gain := recovered - over
	if want := int64(admissionWindow / adjustEvery); gain > want {
		t.Errorf("recovery gained %d slots in %d observations, want additive (<=%d)", gain, admissionWindow, want)
	}

	// The bulk class sees its share, floored at one slot.
	if bulk, full := a.limitFor(classBulk), a.limitFor(classInteractive); bulk != full/2 && bulk != 1 {
		t.Errorf("bulk limit = %d with full limit %d, want the half share", bulk, full)
	}
}

// TestAdmissionStaticWithoutSLO: SLO zero keeps the controller inert — the
// limit is the queue cap no matter what latencies flow past.
func TestAdmissionStaticWithoutSLO(t *testing.T) {
	a := newAdmission(0, 32, 0.5)
	feed(a, 1000, time.Hour)
	if got := a.limitFor(classInteractive); got != 32 {
		t.Errorf("limit = %d after huge latencies with no SLO, want static 32", got)
	}
	if snap := a.snapshot(); snap.Adaptive {
		t.Error("snapshot claims adaptive without an SLO")
	}
}

// TestAdmissionCeiling: within-SLO traffic cannot push the limit past the
// queue cap.
func TestAdmissionCeiling(t *testing.T) {
	a := newAdmission(time.Second, 16, 0.5)
	feed(a, admissionWindow*4, time.Millisecond)
	if got := a.limitFor(classInteractive); got != 16 {
		t.Errorf("limit = %d after fast traffic, want capped at 16", got)
	}
}

// TestLatencyHist: the fixed-bucket histogram tracks count/sum/min/max
// exactly and estimates quantiles within its bucket resolution (2x),
// clamped to the observed range.
func TestLatencyHist(t *testing.T) {
	var h latencyHist
	if h.quantile(0.95) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	durations := []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 300 * time.Microsecond,
		400 * time.Microsecond, 500 * time.Microsecond, 600 * time.Microsecond,
		700 * time.Microsecond, 800 * time.Microsecond, 900 * time.Microsecond,
		10 * time.Millisecond, // the tail outlier
	}
	var sum int64
	for _, d := range durations {
		h.add(d)
		sum += int64(d)
	}
	if h.count != 10 || h.sum != sum {
		t.Fatalf("count=%d sum=%d, want 10 and %d", h.count, h.sum, sum)
	}
	if h.min != int64(100*time.Microsecond) || h.max != int64(10*time.Millisecond) {
		t.Fatalf("min=%d max=%d", h.min, h.max)
	}
	p50 := h.quantile(0.50)
	if p50 < int64(200*time.Microsecond) || p50 > int64(1200*time.Microsecond) {
		t.Errorf("p50 = %dns, want within 2x of the 500-600us median", p50)
	}
	p95 := h.quantile(0.95)
	if p95 < int64(5*time.Millisecond) || p95 > int64(10*time.Millisecond) {
		t.Errorf("p95 = %dns, want in the outlier's bucket (clamped at max)", p95)
	}
	if q := h.quantile(1.0); q != h.max {
		t.Errorf("p100 = %d, want the max %d", q, h.max)
	}

	// A single sample reports itself for every quantile (clamping).
	var one latencyHist
	one.add(42 * time.Microsecond)
	for _, q := range []float64{0.5, 0.95, 1.0} {
		if got := one.quantile(q); got != int64(42*time.Microsecond) {
			t.Errorf("single-sample q%.2f = %d, want the sample", q, got)
		}
	}
}

// TestServerSLOAdaptiveEndToEnd: a server with an absurdly tight SLO
// under load shrinks its admission limit below the static cap — the
// controller is actually wired to live traffic.
func TestServerSLOAdaptiveEndToEnd(t *testing.T) {
	s, ts := testServer(t, Config{SLO: time.Nanosecond, QueueCap: 64})
	// Every run's latency overshoots 1ns; bypass the cache so each request
	// actually runs and feeds the controller.
	for i := 0; i < admissionMinWin+adjustEvery; i++ {
		if st, _, _ := postRaw(t, ts, "/v1/runs?cache=bypass&stream=none", RunSpec{Scenario: "fig10"}); st != 200 {
			t.Fatalf("run %d: status %d", i, st)
		}
	}
	snap := s.Metrics().Snapshot()
	if !snap.Admission.Adaptive {
		t.Fatal("admission not adaptive with an SLO set")
	}
	if snap.Admission.Limit >= 64 {
		t.Errorf("limit = %d after sustained SLO overshoot, want below the cap", snap.Admission.Limit)
	}
	if snap.Admission.WindowP95NS == 0 {
		t.Error("window p95 never computed")
	}
}
