// Command sbload is the closed-loop load generator for sbserver: N client
// workers each issue sequential scenario-run requests, read the full
// NDJSON event stream of every run, and the aggregate — runs/sec,
// completion counts per priority class, cache hit tallies (from the
// X-Cache header), latency percentiles — prints as one JSON report.
// The same kernel (internal/server.RunLoad) drives the gate_* bench entries
// of the sbbench record against an in-process fleet.
//
// The workload shape is tunable: -zipf-n spreads requests over N seed
// variants of the spec drawn Zipf-skewed (a hot head exercising the result
// cache, a cold tail missing it), -bulk-frac demotes that fraction of
// requests to ?class=bulk, and -cache bypass forces every request to run
// on the engine.
//
// Point -url at a cmd/sbgate gateway and the report's per_target section
// (keyed by the X-Replica response header) shows how spec affinity
// partitioned the load; point -targets at the replicas directly and the
// same load is spread round-robin instead — the affinity-blind baseline.
//
// Usage:
//
//	sbload -url http://localhost:8080 -clients 32 -per-client 8 \
//	       -scenario fig10 [-param top=12 ...] [-k 4] [-seed 7] \
//	       [-zipf-n 64 -zipf-s 1.5] [-bulk-frac 0.25] [-cache bypass] \
//	       [-targets http://127.0.0.1:8081,http://127.0.0.1:8082]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/scenario"
	"repro/internal/server"
)

// paramFlags collects repeated -param name=value pairs.
type paramFlags struct{ p scenario.Params }

func (f *paramFlags) String() string { return fmt.Sprint(f.p) }

func (f *paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		return err
	}
	if f.p == nil {
		f.p = scenario.Params{}
	}
	f.p[name] = v
	return nil
}

func main() {
	var (
		url       = flag.String("url", "http://localhost:8080", "sbserver (or sbgate) base URL")
		targets   = flag.String("targets", "", "comma-separated base URLs, round-robined directly (bypasses -url; the affinity-blind baseline to compare a gateway against)")
		clients   = flag.Int("clients", 32, "concurrent closed-loop clients")
		perClient = flag.Int("per-client", 8, "sequential requests per client")
		scen      = flag.String("scenario", "fig10", "scenario generator name")
		k         = flag.Int("k", 0, "parallel-moves batch width (0 = serial)")
		seed      = flag.Int64("seed", 0, "per-run seed override (0 = server default)")
		class     = flag.String("class", "", "priority class for every request: interactive (default) or bulk")
		bulkFrac  = flag.Float64("bulk-frac", 0, "fraction of requests demoted to ?class=bulk")
		zipfN     = flag.Int("zipf-n", 0, "spread load over N Zipf-distributed seed variants (0 = one spec)")
		zipfS     = flag.Float64("zipf-s", 1.5, "Zipf skew exponent (> 1; higher = hotter head)")
		cacheMode = flag.String("cache", "", "cache mode query: bypass to force engine runs")
		params    paramFlags
	)
	flag.Var(&params, "param", "scenario parameter name=value (repeatable)")
	flag.Parse()

	var targetList []string
	for _, u := range strings.Split(*targets, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targetList = append(targetList, u)
		}
	}

	rep, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL:   *url,
		Targets:   targetList,
		Clients:   *clients,
		PerClient: *perClient,
		Spec: server.RunSpec{
			Scenario: *scen,
			Params:   params.p,
			K:        *k,
			Seed:     *seed,
		},
		Class:        *class,
		BulkFraction: *bulkFrac,
		ZipfN:        *zipfN,
		ZipfS:        *zipfS,
		CacheMode:    *cacheMode,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbload: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
