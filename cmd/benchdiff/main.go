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
// case it regresses by shrinking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func load(path string) (map[string]experiments.BenchResult, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rec experiments.BenchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]experiments.BenchResult, len(rec.Results))
	var order []string
	for _, r := range rec.Results {
		out[r.Name] = r
		order = append(order, r.Name)
	}
	return out, order, nil
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
	oldRes, _, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	newRes, newOrder, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	failed := 0
	fmt.Printf("%-36s %14s %14s %9s\n", "KERNEL", "OLD ns/op", "NEW ns/op", "DELTA")
	for _, name := range newOrder {
		nw := newRes[name]
		ol, ok := oldRes[name]
		if !ok {
			fmt.Printf("%-36s %14s %14.1f %9s\n", name, "-", nw.NsPerOp, "new")
			continue
		}
		delta := (nw.NsPerOp - ol.NsPerOp) / ol.NsPerOp * 100
		verdict := ""
		switch {
		case nw.Ungated:
			verdict = "(not gated)"
		case delta > *maxRegress:
			verdict = "REGRESSED"
			failed++
		}
		fmt.Printf("%-36s %14.1f %14.1f %+8.1f%% %s\n", name, ol.NsPerOp, nw.NsPerOp, delta, verdict)
		// Deterministic metric gate: both records must carry the metric.
		if ol.Metric != 0 && nw.Metric != 0 {
			mDelta := (nw.Metric - ol.Metric) / ol.Metric * 100
			mVerdict := ""
			if nw.HigherIsBetter {
				if mDelta < -*maxRegress {
					mVerdict = "METRIC REGRESSED"
					failed++
				}
			} else if mDelta > *maxRegress {
				mVerdict = "METRIC REGRESSED"
				failed++
			}
			fmt.Printf("%-36s %14.2f %14.2f %+8.1f%% %s\n",
				"  metric:"+nw.MetricName, ol.Metric, nw.Metric, mDelta, mVerdict)
		}
	}
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			fmt.Printf("%-36s %14.1f %14s %9s\n", name, oldRes[name].NsPerOp, "-", "retired")
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d kernel(s) regressed more than %.0f%% (label the PR bench-regression-ok to override)\n", failed, *maxRegress)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no gated kernel regressed more than %.0f%%\n", *maxRegress)
}
