package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// record builds a bench record of the given kernels.
func record(results ...experiments.BenchResult) experiments.BenchRecord {
	return experiments.BenchRecord{Results: results}
}

// TestDiffRenamedMetricNotGated: a kernel whose Metric changed its name
// between the records is reported, not gated, even when the new value of a
// lower-is-better metric is far above the old one.
func TestDiffRenamedMetricNotGated(t *testing.T) {
	old := record(experiments.BenchResult{Name: "gate_affinity_hot", NsPerOp: 100, Metric: 2.70, MetricName: "speedup_x"})
	nw := record(experiments.BenchResult{Name: "gate_affinity_hot", NsPerOp: 100, Metric: 96, MetricName: "fleet_cache_hits"})
	var out strings.Builder
	if failed := diff(&out, old, nw, 10); failed != 0 {
		t.Errorf("renamed metric: %d failures, want 0\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "metric:speedup_x -> fleet_cache_hits") {
		t.Errorf("output does not report the rename:\n%s", out.String())
	}
}

// TestDiffMetricGate: a metric of the same name fails past the limit in
// its bad direction, and passes within it or in its good direction.
func TestDiffMetricGate(t *testing.T) {
	for _, tc := range []struct {
		name           string
		old, new       float64
		higherIsBetter bool
		wantFailed     int
	}{
		{"lower-is-better grew 20%", 100, 120, false, 1},
		{"lower-is-better grew 5%", 100, 105, false, 0},
		{"lower-is-better shrank 50%", 100, 50, false, 0},
		{"higher-is-better shrank 20%", 100, 80, true, 1},
		{"higher-is-better grew 50%", 100, 150, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := record(experiments.BenchResult{Name: "k", NsPerOp: 100, Metric: tc.old, MetricName: "m", Ungated: true})
			nw := record(experiments.BenchResult{Name: "k", NsPerOp: 100, Metric: tc.new, MetricName: "m", Ungated: true, HigherIsBetter: tc.higherIsBetter})
			if failed := diff(io.Discard, old, nw, 10); failed != tc.wantFailed {
				t.Errorf("%d failures, want %d", failed, tc.wantFailed)
			}
		})
	}
}

// TestDiffNsPerOpGate: a gated kernel fails once its ns/op grows past the
// limit, an ungated one never does, and kernels in only one record never
// fail.
func TestDiffNsPerOpGate(t *testing.T) {
	old := record(
		experiments.BenchResult{Name: "slow", NsPerOp: 100},
		experiments.BenchResult{Name: "steady", NsPerOp: 100},
		experiments.BenchResult{Name: "noisy", NsPerOp: 100},
		experiments.BenchResult{Name: "retired", NsPerOp: 100},
	)
	nw := record(
		experiments.BenchResult{Name: "slow", NsPerOp: 120},
		experiments.BenchResult{Name: "steady", NsPerOp: 105},
		experiments.BenchResult{Name: "noisy", NsPerOp: 300, Ungated: true},
		experiments.BenchResult{Name: "fresh", NsPerOp: 100},
	)
	var out strings.Builder
	if failed := diff(&out, old, nw, 10); failed != 1 {
		t.Errorf("%d failures, want 1 (slow)\n%s", failed, out.String())
	}
	for _, want := range []string{"REGRESSED", "(not gated)", "new", "retired"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if failed := diff(io.Discard, old, nw, 25); failed != 0 {
		t.Errorf("at a 25%% limit: %d failures, want 0", failed)
	}
}
