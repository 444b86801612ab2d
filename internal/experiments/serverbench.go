package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"repro/internal/server"
)

// serverKernels measures the service front-end end to end, three ways:
//
//   - server_throughput_32c: an in-process sbserver (default config) under
//     the closed-loop load generator — 32 concurrent clients, 8 sequential
//     fig10 runs each, every client reading its full NDJSON event stream,
//     with ?cache=bypass so every request actually executes on the engine.
//     The headline metric is runs/sec at that concurrency (gated ascending
//     by benchdiff); the server_phase_* kernels record the per-request
//     latency split the /metrics endpoint aggregates: admission to run
//     start (enqueue), engine run, and response write.
//
//   - server_cache_hot: the same 32x8 load with the result cache active
//     and warm — every request replays the memoized run. The kernel
//     asserts that hits are byte-identical to the engine-served stream and
//     at least 5x the bypass throughput (the whole point of memoizing
//     deterministic runs).
//
//   - server_slo_p95: a server with a 5s run-phase SLO under a mixed
//     interactive+bulk bypass load (16 clients, 25% bulk). NsPerOp records
//     the run-phase p95 under admission control; the metric is the
//     completion percentage, expected 100 — overload must shed as 429s
//     before it becomes failures, and interactive traffic must not starve.
func serverKernels() ([]BenchResult, error) {
	const (
		clients   = 32
		perClient = 8
	)
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	rep, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL:   ts.URL,
		Clients:   clients,
		PerClient: perClient,
		Spec:      server.RunSpec{Scenario: "fig10"},
		CacheMode: "bypass",
		Client:    ts.Client(),
	})
	if err != nil {
		return nil, fmt.Errorf("bench: server load: %w", err)
	}
	if rep.Completed != clients*perClient || rep.Failed > 0 || rep.Rejected > 0 {
		return nil, fmt.Errorf("bench: server load completed %d/%d (failed %d, rejected %d)",
			rep.Completed, clients*perClient, rep.Failed, rep.Rejected)
	}

	results := []BenchResult{{
		Name:           fmt.Sprintf("server_throughput_%dc", clients),
		NsPerOp:        float64(rep.ElapsedNS) / float64(rep.Completed),
		Ops:            rep.Completed,
		Metric:         rep.RunsPerSec,
		MetricName:     "runs_per_sec",
		Ungated:        true,
		HigherIsBetter: true,
	}}
	snap := s.Metrics().Snapshot()
	for _, phase := range []string{"enqueue", "run", "respond"} {
		a := snap.Latency[phase]
		if a.Count == 0 {
			return nil, fmt.Errorf("bench: server phase %q has no samples", phase)
		}
		results = append(results, BenchResult{
			Name:    "server_phase_" + phase,
			NsPerOp: float64(a.MeanNS),
			Ops:     int(a.Count),
			Ungated: true,
		})
	}

	hot, err := serverCacheHotKernel(clients, perClient, rep.RunsPerSec)
	if err != nil {
		return nil, err
	}
	slo, err := serverSLOKernel()
	if err != nil {
		return nil, err
	}
	return append(results, hot, slo), nil
}

// serverCacheHotKernel warms the result cache with one fig10 run, verifies
// a hit replays the engine stream byte-for-byte, then measures hit-serving
// throughput against the bypass baseline.
func serverCacheHotKernel(clients, perClient int, bypassRunsPerSec float64) (BenchResult, error) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	post := func() (string, []byte, error) {
		resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json",
			bytes.NewReader([]byte(`{"scenario":"fig10"}`)))
		if err != nil {
			return "", nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.Header.Get("X-Cache"), body, err
	}
	xc, warmBody, err := post()
	if err != nil || xc != "miss" {
		return BenchResult{}, fmt.Errorf("bench: cache warm run: X-Cache=%q err=%v", xc, err)
	}
	xc, hitBody, err := post()
	if err != nil || xc != "hit" {
		return BenchResult{}, fmt.Errorf("bench: cache hit probe: X-Cache=%q err=%v", xc, err)
	}
	if !bytes.Equal(warmBody, hitBody) {
		return BenchResult{}, fmt.Errorf("bench: cached stream not byte-identical (%d vs %d bytes)",
			len(warmBody), len(hitBody))
	}

	rep, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL:   ts.URL,
		Clients:   clients,
		PerClient: perClient,
		Spec:      server.RunSpec{Scenario: "fig10"},
		Client:    ts.Client(),
	})
	if err != nil {
		return BenchResult{}, fmt.Errorf("bench: cache-hot load: %w", err)
	}
	total := clients * perClient
	if rep.Completed != total || rep.CacheHits != total {
		return BenchResult{}, fmt.Errorf("bench: cache-hot load completed %d/%d with %d hits, want all hits",
			rep.Completed, total, rep.CacheHits)
	}
	if rep.RunsPerSec < 5*bypassRunsPerSec {
		return BenchResult{}, fmt.Errorf("bench: cache-hot throughput %.0f runs/sec < 5x the bypass %.0f",
			rep.RunsPerSec, bypassRunsPerSec)
	}
	return BenchResult{
		Name:           "server_cache_hot",
		NsPerOp:        float64(rep.ElapsedNS) / float64(rep.Completed),
		Ops:            rep.Completed,
		Metric:         rep.RunsPerSec,
		MetricName:     "runs_per_sec",
		Ungated:        true,
		HigherIsBetter: true,
	}, nil
}

// serverSLOKernel measures tail latency under SLO-driven admission with a
// mixed-class load.
func serverSLOKernel() (BenchResult, error) {
	const (
		slo       = 5 * time.Second
		clients   = 16
		perClient = 4
	)
	s := server.New(server.Config{SLO: slo})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	rep, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL:      ts.URL,
		Clients:      clients,
		PerClient:    perClient,
		Spec:         server.RunSpec{Scenario: "fig10"},
		BulkFraction: 0.25,
		CacheMode:    "bypass",
		Client:       ts.Client(),
	})
	if err != nil {
		return BenchResult{}, fmt.Errorf("bench: slo load: %w", err)
	}
	if rep.Failed > 0 {
		return BenchResult{}, fmt.Errorf("bench: slo load had %d failures (rejections must be 429s, not errors)",
			rep.Failed)
	}
	if inter := rep.PerClass["interactive"]; inter.Rejected > 0 {
		return BenchResult{}, fmt.Errorf("bench: %d interactive rejections under a %v SLO — interactive starved",
			inter.Rejected, slo)
	}
	snap := s.Metrics().Snapshot()
	runP95 := snap.Latency["run"].P95NS
	if runP95 <= 0 || runP95 > int64(slo) {
		return BenchResult{}, fmt.Errorf("bench: run-phase p95 %dns outside (0, %v]", runP95, slo)
	}
	total := clients * perClient
	return BenchResult{
		Name:           "server_slo_p95",
		NsPerOp:        float64(runP95),
		Ops:            total,
		Metric:         100 * float64(rep.Completed) / float64(total),
		MetricName:     "completed_pct",
		Ungated:        true,
		HigherIsBetter: true,
	}, nil
}
