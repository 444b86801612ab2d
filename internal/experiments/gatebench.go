package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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
//     the single replica thrashes (every miss re-runs the engine) while the
//     fleet serves warm hits. The kernel gates what the gateway controls,
//     as exact counts: the fleet must answer every measured request from
//     cache (the Metric, fleet_cache_hits), and the single replica must
//     miss at least once, or the fixture no longer overflows one replica.
//     The throughput ratio of the two stacks is not gated: it tracks the
//     engine's cost per miss, not the routing. The kernel first re-asserts
//     the golden fig10 run through the whole proxy chain (exactly 109 hops,
//     byte-identical to a direct replica response).
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

	total := clients * perClient
	if fleet.CacheHits != total {
		return BenchResult{}, fmt.Errorf("bench: affinity-routed fleet answered %d of %d measured requests from cache (%d misses), want all",
			fleet.CacheHits, total, fleet.CacheMiss)
	}
	if base.CacheMiss == 0 {
		return BenchResult{}, fmt.Errorf("bench: a single replica missed none of %d measured requests; the working set no longer overflows one replica's cache",
			total)
	}
	return BenchResult{
		Name:           "gate_affinity_hot",
		NsPerOp:        float64(fleet.ElapsedNS) / float64(fleet.Completed),
		Ops:            fleet.Completed,
		Metric:         float64(fleet.CacheHits),
		MetricName:     "fleet_cache_hits",
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

	// Drain replica 0 once the load has made progress, not after a fixed
	// time, so the drain lands mid-load on any host: once a quarter of the
	// requests have come back, at least one of them from replica 0, so that
	// replica is in rotation and three quarters of the load still follow.
	// Correctness does not depend on how much of the working set was warm
	// by then.
	total := clients * perClient
	replica0 := g.Metrics().Replicas[0].URL
	drained := make(chan error, 1)
	tr := &drainTrigger{
		base: &http.Transport{MaxIdleConnsPerHost: clients}, replica: replica0, at: int64(total / 4),
		fire: func() {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				drained <- srvs[0].Shutdown(ctx)
			}()
			// Hold this response until replica 0 refuses new runs.
			for !srvs[0].Draining() {
				time.Sleep(100 * time.Microsecond)
			}
		},
	}
	defer tr.base.CloseIdleConnections()

	rep, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL: gw.URL, Clients: clients, PerClient: perClient,
		Spec: server.RunSpec{Scenario: "fig10"}, ZipfN: nSpecs, ZipfS: 1.2,
		Client: &http.Client{Transport: tr},
	})
	if err != nil {
		return BenchResult{}, fmt.Errorf("bench: drain load: %w", err)
	}
	if !srvs[0].Draining() {
		return BenchResult{}, fmt.Errorf("bench: replica 0 served none of the drain load, so it was never drained")
	}
	if err := <-drained; err != nil {
		return BenchResult{}, fmt.Errorf("bench: drain: %w", err)
	}

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

// drainTrigger is the drain kernel's client transport. It counts the
// responses the gateway returns and calls fire, once, on the response that
// brings the count to at if replica has served one of them by then, or on
// the first later response that does; fire runs before that response
// reaches the load's client.
type drainTrigger struct {
	base    *http.Transport
	replica string // the X-Replica header of the replica to drain
	at      int64
	fire    func()
	done    atomic.Int64
	seen    atomic.Bool
	once    sync.Once
}

func (d *drainTrigger) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if resp.Header.Get("X-Replica") == d.replica {
		d.seen.Store(true)
	}
	if d.done.Add(1) >= d.at && d.seen.Load() {
		d.once.Do(d.fire)
	}
	return resp, nil
}
