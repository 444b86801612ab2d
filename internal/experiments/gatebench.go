package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/gate"
	"repro/internal/server"
)

// gateKernels measures the horizontal service tier end to end, two ways:
//
//   - gate_affinity_hot: a Zipf working set of N deterministic specs whose
//     recordings do NOT fit one replica's result cache (per-replica budget
//     ~ N/2 entries, probed at runtime) is driven twice through identical
//     stacks: once against a single capacity-constrained replica, once
//     through the sbgate gateway over three such replicas. Spec-affinity
//     routing partitions the working set across the fleet, so the same
//     cache budget per replica yields three times the effective capacity —
//     the single replica thrashes (every miss re-runs the engine at
//     ~30ms/run) while the fleet serves warm hits. The kernel gates the
//     speedup at >= 2.5x and first re-asserts the golden fig10 run through
//     the whole proxy chain (exactly 109 hops, byte-identical to a direct
//     replica response).
//
//   - gate_drain_zero_loss: the same fleet under closed-loop load has one
//     replica gracefully drained mid-run. The gateway discovers the drain
//     in-band (healthz goes 503, runs are refused), retries the refused
//     deterministic requests on the ring successor, and the successor
//     adopts still-warm recordings from the draining owner over /v1/peek.
//     The metric is the completion percentage, gated ascending: a scale-
//     down must lose zero requests (failed == 0, rejected == 0).
func gateKernels() ([]BenchResult, error) {
	affinity, err := gateAffinityKernel()
	if err != nil {
		return nil, err
	}
	drain, err := gateDrainKernel()
	if err != nil {
		return nil, err
	}
	return []BenchResult{affinity, drain}, nil
}

// gateFleet builds n in-process replicas plus a gateway over them. The
// gateway's background health loop stays off so the kernels are driven
// purely by the in-band (reactive) drain discovery path.
func gateFleet(n int, scfg server.Config) (gw *httptest.Server, g *gate.Gateway, srvs []*server.Server, cleanup func(), err error) {
	scfg.PeerProbe = true
	var ts []*httptest.Server
	var urls []string
	cleanup = func() {
		if gw != nil {
			gw.Close()
		}
		if g != nil {
			g.Close()
		}
		for i := range ts {
			ts[i].Close()
			srvs[i].Close()
		}
	}
	for i := 0; i < n; i++ {
		s := server.New(scfg)
		h := httptest.NewServer(s.Handler())
		srvs = append(srvs, s)
		ts = append(ts, h)
		urls = append(urls, h.URL)
	}
	g, err = gate.New(gate.Config{Replicas: urls, PeerProbe: true, HealthInterval: -1})
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, fmt.Errorf("bench: gateway: %w", err)
	}
	gw = httptest.NewServer(g.Handler())
	return gw, g, srvs, cleanup, nil
}

// probeEntryBytes runs one instance of the working-set spec on a throwaway
// replica and reports the bytes its cache retained — the unit the kernel
// sizes per-replica budgets in, so the capacity ratio (entries per replica
// vs working-set size) holds regardless of how recordings grow.
func probeEntryBytes(spec server.RunSpec) (int64, error) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/runs?stream=none", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("bench: cache-entry probe: status %d", resp.StatusCode)
	}
	b := s.Metrics().Snapshot().Cache.Bytes
	if b <= 0 {
		return 0, fmt.Errorf("bench: cache-entry probe retained %d bytes", b)
	}
	return b, nil
}

// gateAffinityLoad warms and then measures one stack (single replica or
// gateway) under the shared Zipf working-set load.
func gateAffinityLoad(baseURL string, spec server.RunSpec, nSpecs, clients, perClient int) (server.LoadReport, error) {
	warm, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL: baseURL, Clients: clients, PerClient: perClient,
		Spec: spec, ZipfN: nSpecs, ZipfS: 1.1,
	})
	if err != nil {
		return warm, fmt.Errorf("bench: affinity warm-up: %w", err)
	}
	rep, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL: baseURL, Clients: clients, PerClient: perClient,
		Spec: spec, ZipfN: nSpecs, ZipfS: 1.1,
	})
	if err != nil {
		return rep, fmt.Errorf("bench: affinity load: %w", err)
	}
	total := clients * perClient
	if rep.Completed != total || rep.Failed > 0 || rep.Rejected > 0 {
		return rep, fmt.Errorf("bench: affinity load completed %d/%d (failed %d, rejected %d)",
			rep.Completed, total, rep.Failed, rep.Rejected)
	}
	return rep, nil
}

func gateAffinityKernel() (BenchResult, error) {
	const (
		replicas  = 3
		nSpecs    = 30 // Zipf working-set size (seed variants)
		capacity  = 12 // cache entries one replica can hold
		clients   = 6
		perClient = 16
	)
	spec := server.RunSpec{Scenario: "slope"} // ~30ms/engine-run: a miss is expensive

	entryBytes, err := probeEntryBytes(spec)
	if err != nil {
		return BenchResult{}, err
	}
	scfg := server.Config{CacheBytes: capacity*entryBytes + entryBytes/2}

	// Golden re-assertion through the whole proxy chain: fig10 must still
	// move exactly 109 blocks, and the gateway-proxied stream must be
	// byte-identical to the same replica answering directly.
	gw, _, _, cleanup, err := gateFleet(replicas, scfg)
	if err != nil {
		return BenchResult{}, err
	}
	defer cleanup()
	if err := gateGoldenFig10(gw); err != nil {
		return BenchResult{}, err
	}

	fleet, err := gateAffinityLoad(gw.URL, spec, nSpecs, clients, perClient)
	if err != nil {
		return BenchResult{}, fmt.Errorf("fleet: %w", err)
	}
	if len(fleet.PerTarget) < 2 {
		return BenchResult{}, fmt.Errorf("bench: affinity load used %d replicas, want the ring to spread",
			len(fleet.PerTarget))
	}

	single := server.New(scfg)
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	defer single.Close()
	base, err := gateAffinityLoad(sts.URL, spec, nSpecs, clients, perClient)
	if err != nil {
		return BenchResult{}, fmt.Errorf("single replica: %w", err)
	}

	speedup := fleet.RunsPerSec / base.RunsPerSec
	if speedup < 2.5 {
		return BenchResult{}, fmt.Errorf("bench: affinity-routed fleet %.0f runs/sec vs single replica %.0f — %.2fx, want >= 2.5x",
			fleet.RunsPerSec, base.RunsPerSec, speedup)
	}
	return BenchResult{
		Name:           "gate_affinity_hot",
		NsPerOp:        float64(fleet.ElapsedNS) / float64(fleet.Completed),
		Ops:            fleet.Completed,
		Metric:         speedup,
		MetricName:     "speedup_x",
		Ungated:        true,
		HigherIsBetter: true,
	}, nil
}

// gateGoldenFig10 asserts the paper's §V-D run through the gateway: 109
// hops, successful, and byte-identical to the direct replica response.
func gateGoldenFig10(gw *httptest.Server) error {
	post := func(url string) ([]byte, string, error) {
		resp, err := http.Post(url+"/v1/runs", "application/json",
			bytes.NewReader([]byte(`{"scenario":"fig10"}`)))
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return body, resp.Header.Get("X-Replica"), err
	}
	viaGate, replicaURL, err := post(gw.URL)
	if err != nil {
		return fmt.Errorf("bench: golden fig10 via gateway: %w", err)
	}
	var rec struct {
		Type    string `json:"type"`
		Success bool   `json:"success"`
		Hops    int    `json:"hops"`
	}
	last := bytes.TrimSpace(viaGate)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	if err := json.Unmarshal(last, &rec); err != nil {
		return fmt.Errorf("bench: golden fig10 terminal record: %w", err)
	}
	if rec.Type != "result" || !rec.Success || rec.Hops != 109 {
		return fmt.Errorf("bench: golden fig10 through gateway = %+v, want the 109-hop success", rec)
	}
	direct, _, err := post(replicaURL)
	if err != nil {
		return fmt.Errorf("bench: golden fig10 direct: %w", err)
	}
	if !bytes.Equal(viaGate, direct) {
		return fmt.Errorf("bench: gateway-proxied fig10 stream differs from the direct replica response")
	}
	return nil
}

func gateDrainKernel() (BenchResult, error) {
	const (
		replicas  = 3
		nSpecs    = 16
		clients   = 6
		perClient = 48
	)
	gw, g, srvs, cleanup, err := gateFleet(replicas, server.Config{})
	if err != nil {
		return BenchResult{}, err
	}
	defer cleanup()

	// Drain one replica shortly after the load starts. The load runs for
	// hundreds of milliseconds (the cold working set alone costs ~100ms of
	// engine time), so the drain always lands mid-flight; correctness does
	// not depend on how much of the working set was warm by then.
	drained := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srvs[0].Shutdown(ctx)
	}()

	rep, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL: gw.URL, Clients: clients, PerClient: perClient,
		Spec: server.RunSpec{Scenario: "fig10"}, ZipfN: nSpecs, ZipfS: 1.2,
	})
	if err != nil {
		return BenchResult{}, fmt.Errorf("bench: drain load: %w", err)
	}
	if err := <-drained; err != nil {
		return BenchResult{}, fmt.Errorf("bench: drain: %w", err)
	}

	total := clients * perClient
	if rep.Completed != total || rep.Failed > 0 || rep.Rejected > 0 {
		return BenchResult{}, fmt.Errorf("bench: drained fleet completed %d/%d (failed %d, rejected %d), want zero loss",
			rep.Completed, total, rep.Failed, rep.Rejected)
	}
	if g.Metrics().RetriesTotal < 1 {
		return BenchResult{}, fmt.Errorf("bench: drain produced no gateway retries — the drained replica was never in rotation")
	}
	return BenchResult{
		Name:           "gate_drain_zero_loss",
		NsPerOp:        float64(rep.ElapsedNS) / float64(rep.Completed),
		Ops:            rep.Completed,
		Metric:         100 * float64(rep.Completed) / float64(total),
		MetricName:     "completed_pct",
		Ungated:        true,
		HigherIsBetter: true,
	}, nil
}
