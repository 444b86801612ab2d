package experiments

import (
	"encoding/json"
	"testing"
)

// TestRunBenchJSON checks the machine-readable bench record is well-formed:
// valid JSON, schema-tagged, naming its host, and covering every hot-path
// kernel and both gateway kernels.
func TestRunBenchJSON(t *testing.T) {
	data, err := RunBenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	var rec BenchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rec.Schema != "sbbench/1" {
		t.Errorf("schema = %q, want sbbench/1", rec.Schema)
	}
	if rec.GOMAXPROCS < 1 || rec.NumCPU < 1 || rec.CPU == "" {
		t.Errorf("host fields gomaxprocs=%d numcpu=%d cpu=%q, want positive counts and a model",
			rec.GOMAXPROCS, rec.NumCPU, rec.CPU)
	}
	want := map[string]bool{
		"table2_overlap":                  false,
		"applications_for_predicate":      false,
		"applications_for_bitboard":       false,
		"surface_validate":                false,
		"validate_connectivity":           false,
		"validate_connectivity_clone_dfs": false,
		"applications_for_connectivity":   false,
		"fig10_reconfiguration":           false,
		"gate_affinity_hot":               false,
		"gate_drain_zero_loss":            false,
	}
	for _, r := range rec.Results {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if r.NsPerOp <= 0 || r.Ops <= 0 {
			t.Errorf("%s: non-positive measurement %+v", r.Name, r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("kernel %s missing from record", name)
		}
	}
}
