// Command benchdiff compares two sbbench records (BENCH_N.json) and fails
// when a hot-path kernel regressed beyond the tolerated percentage. CI runs
// it against the previous main-branch artifact so performance regressions
// surface on the pull request that introduces them (ROADMAP: perf
// trajectory gate).
//
// Usage:
//
//	benchdiff -old prev/BENCH_1.json -new BENCH_2.json -max-regress 10
//
// Both records' hosts (Go version, platform, GOMAXPROCS, CPU count and
// model) print above the table, so a delta measured across machines is
// visible as such; the host never changes the verdict.
//
// Kernels are matched by name; kernels present in only one record are
// reported but never fail the gate (new kernels appear, old ones retire).
// The gating metadata comes from the new record's own kernels: one marked
// ungated (an end-to-end wall-clock run) is reported without ns/op gating,
// because such times are too noisy for a percentage threshold on shared CI
// runners.
//
// Kernels carrying a Metric (block moves, rounds-to-completion,
// moves-per-round) are additionally gated on the metric itself — metrics
// are deterministic DES counts, immune to runner noise, so they are gated
// even for ungated kernels. A metric regresses by growing, unless its
// kernel marks it higher-is-better (e.g. moves_per_round_k4), in which
// case it regresses by shrinking. Metrics are compared only when both
// records give them the same MetricName: a kernel whose metric was renamed
// reports both values without gating them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func load(path string) (experiments.BenchRecord, error) {
	var rec experiments.BenchRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// host renders a record's host fields on one line. A record written before
// sbbench recorded GOMAXPROCS, the CPU count and the CPU model shows zeros
// and an empty model.
func host(rec experiments.BenchRecord) string {
	return fmt.Sprintf("%s %s/%s gomaxprocs=%d numcpu=%d cpu=%q",
		rec.GoVersion, rec.GOOS, rec.GOARCH, rec.GOMAXPROCS, rec.NumCPU, rec.CPU)
}

// diff writes the comparison table of two records to w, in the new
// record's kernel order followed by the retired kernels, and returns how
// many gated comparisons regressed by more than maxRegress percent.
func diff(w io.Writer, oldRec, newRec experiments.BenchRecord, maxRegress float64) int {
	oldRes := make(map[string]experiments.BenchResult, len(oldRec.Results))
	for _, r := range oldRec.Results {
		oldRes[r.Name] = r
	}
	inNew := make(map[string]bool, len(newRec.Results))
	failed := 0
	fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "KERNEL", "OLD ns/op", "NEW ns/op", "DELTA")
	for _, nw := range newRec.Results {
		inNew[nw.Name] = true
		ol, ok := oldRes[nw.Name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %14.1f %9s\n", nw.Name, "-", nw.NsPerOp, "new")
			continue
		}
		delta := (nw.NsPerOp - ol.NsPerOp) / ol.NsPerOp * 100
		verdict := ""
		switch {
		case nw.Ungated:
			verdict = "(not gated)"
		case delta > maxRegress:
			verdict = "REGRESSED"
			failed++
		}
		fmt.Fprintf(w, "%-36s %14.1f %14.1f %+8.1f%% %s\n", nw.Name, ol.NsPerOp, nw.NsPerOp, delta, verdict)
		// Deterministic metric gate: both records must carry the same metric.
		switch {
		case ol.Metric == 0 || nw.Metric == 0:
		case ol.MetricName != nw.MetricName:
			fmt.Fprintf(w, "%-36s %14.2f %14.2f %9s (not gated)\n",
				"  metric:"+ol.MetricName+" -> "+nw.MetricName, ol.Metric, nw.Metric, "renamed")
		default:
			mDelta := (nw.Metric - ol.Metric) / ol.Metric * 100
			mVerdict := ""
			if nw.HigherIsBetter {
				if mDelta < -maxRegress {
					mVerdict = "METRIC REGRESSED"
					failed++
				}
			} else if mDelta > maxRegress {
				mVerdict = "METRIC REGRESSED"
				failed++
			}
			fmt.Fprintf(w, "%-36s %14.2f %14.2f %+8.1f%% %s\n",
				"  metric:"+nw.MetricName, ol.Metric, nw.Metric, mDelta, mVerdict)
		}
	}
	for _, ol := range oldRec.Results {
		if !inNew[ol.Name] {
			fmt.Fprintf(w, "%-36s %14.1f %14s %9s\n", ol.Name, ol.NsPerOp, "-", "retired")
		}
	}
	return failed
}

func main() {
	var (
		oldPath    = flag.String("old", "", "previous bench record (baseline)")
		newPath    = flag.String("new", "", "current bench record")
		maxRegress = flag.Float64("max-regress", 10, "tolerated slowdown of a gated kernel, percent")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	oldRec, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	newRec, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("old host: %s\nnew host: %s\n\n", host(oldRec), host(newRec))
	if failed := diff(os.Stdout, oldRec, newRec, *maxRegress); failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d kernel(s) regressed more than %.0f%% (label the PR bench-regression-ok to override)\n", failed, *maxRegress)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no gated kernel regressed more than %.0f%%\n", *maxRegress)
}
