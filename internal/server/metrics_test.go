package server

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
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
