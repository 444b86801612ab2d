package server

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics_layout.json from the current layout")

// metricsLayout is what MergeSnapshots relies on every replica sharing: the
// phase names and the latency histograms' bucket upper bounds. A gateway
// merging snapshots from replicas with another layout would sum mismatched
// buckets without noticing.
type metricsLayout struct {
	Phases       []string `json:"phases"`
	UpperBoundNS []int64  `json:"bucket_upper_bounds_ns"`
}

// TestMetricsLayoutGolden pins the layout to testdata/metrics_layout.json.
// Run with -update only for a deliberate layout change, and deploy it to
// every replica and gateway together.
func TestMetricsLayoutGolden(t *testing.T) {
	path := filepath.Join("testdata", "metrics_layout.json")
	got := metricsLayout{Phases: phaseNames[:]}
	for i := 0; i < histBuckets; i++ {
		got.UpperBoundNS = append(got.UpperBoundNS, histUpperBound(i))
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	var want metricsLayout
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics layout changed — replicas and gateways of different builds would mis-merge:\ngot  %+v\nwant %+v", got, want)
	}
	snap := newMetrics().Snapshot()
	for _, name := range want.Phases {
		if _, ok := snap.Latency[name]; !ok {
			t.Errorf("snapshot has no %q latency entry", name)
		}
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
