package gate

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/speckey"
)

// fleet spins up n in-process sbserver replicas plus a gateway over them.
// The background health loop is disabled (New still seeds states with one
// synchronous probe pass) so tests control state transitions exactly.
func fleet(t *testing.T, n int, scfg server.Config) (*Gateway, *httptest.Server, []*server.Server, []*httptest.Server) {
	t.Helper()
	scfg.PeerProbe = true
	var (
		srvs []*server.Server
		ts   []*httptest.Server
		urls []string
	)
	for i := 0; i < n; i++ {
		s := server.New(scfg)
		h := httptest.NewServer(s.Handler())
		srvs = append(srvs, s)
		ts = append(ts, h)
		urls = append(urls, h.URL)
		t.Cleanup(func() { h.Close(); s.Close() })
	}
	g, err := New(Config{Replicas: urls, PeerProbe: true, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gw.Close(); g.Close() })
	return g, gw, srvs, ts
}

// postThrough issues one run through the gateway and returns the status,
// the salient headers and the full body.
func postThrough(t *testing.T, gw *httptest.Server, spec speckey.Spec, query string) (int, http.Header, []byte) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(gw.URL+"/v1/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST through gateway: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading proxied body: %v", err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestRingSpreadAndRemap: keys spread over every replica, the assignment
// is deterministic, and removing one replica remaps ONLY its keys — every
// other key keeps its owner (the property cache affinity survives on).
func TestRingSpreadAndRemap(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := newRing(urls, 64)
	counts := make([]int, len(urls))
	owner := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		h := speckey.Hash(fmt.Sprintf("key-%d", i))
		ord := r.ordered(h)
		if len(ord) != len(urls) {
			t.Fatalf("ordered returned %d replicas, want %d", len(ord), len(urls))
		}
		owner[h] = ord[0]
		counts[ord[0]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("replica %d owns no keys out of 1000", i)
		}
	}
	// Drop replica 0: its keys must move to their old successor; keys owned
	// elsewhere must not move at all.
	r2 := newRing(urls[1:], 64)
	for i := 0; i < 1000; i++ {
		h := speckey.Hash(fmt.Sprintf("key-%d", i))
		old := r.ordered(h)
		got := r2.ordered(h)[0] + 1 // r2 indices shift down by one
		if old[0] == 0 {
			want := old[1]
			if got != want {
				t.Fatalf("key %d: owner after removal = %d, want old successor %d", i, got, want)
			}
		} else if got != old[0] {
			t.Fatalf("key %d: owner moved %d -> %d though its replica survived", i, old[0], got)
		}
	}
}

// TestGateAffinityAndHeaders: identical specs always land on the same
// replica (second request is that replica's cache hit), different specs
// spread over the fleet, and every response names its spec key and
// serving replica.
func TestGateAffinityAndHeaders(t *testing.T) {
	_, gw, _, _ := fleet(t, 3, server.Config{})
	distinct := map[string]bool{}
	for i := 0; i < 8; i++ {
		spec := speckey.Spec{Scenario: "fig10", Seed: int64(i + 1)}
		wantKey, err := spec.Key(1)
		if err != nil {
			t.Fatal(err)
		}
		status, h1, body1 := postThrough(t, gw, spec, "")
		if status != http.StatusOK {
			t.Fatalf("spec %d: status = %d", i, status)
		}
		if got := h1.Get(headerSpecKey); got != wantKey {
			t.Fatalf("spec %d: X-Spec-Key = %q, want %q", i, got, wantKey)
		}
		if h1.Get(headerXCache) != "miss" {
			t.Fatalf("spec %d: first X-Cache = %q, want miss", i, h1.Get(headerXCache))
		}
		rep := h1.Get(headerReplica)
		if rep == "" {
			t.Fatalf("spec %d: no X-Replica header", i)
		}
		distinct[rep] = true

		status, h2, body2 := postThrough(t, gw, spec, "")
		if status != http.StatusOK || h2.Get(headerXCache) != "hit" {
			t.Fatalf("spec %d: repeat status=%d X-Cache=%q, want a 200 hit", i, status, h2.Get(headerXCache))
		}
		if h2.Get(headerReplica) != rep {
			t.Fatalf("spec %d: repeat served by %q, first by %q — affinity broken", i, h2.Get(headerReplica), rep)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("spec %d: cached replay is not byte-identical to the engine-served stream", i)
		}
	}
	if len(distinct) < 2 {
		t.Errorf("8 distinct specs all routed to %d replica(s); the ring is not spreading", len(distinct))
	}
}

// TestGateGoldenThroughGateway: the golden fig10 run through the whole
// proxy chain still moves exactly 109 blocks.
func TestGateGoldenThroughGateway(t *testing.T) {
	_, gw, _, _ := fleet(t, 2, server.Config{})
	status, _, body := postThrough(t, gw, speckey.Spec{Scenario: "fig10"}, "?stream=none")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var rec struct {
		Type    string `json:"type"`
		Success bool   `json:"success"`
		Hops    int    `json:"hops"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "result" || !rec.Success || rec.Hops != 109 {
		t.Fatalf("fig10 through gateway = %+v, want the golden 109-hop success", rec)
	}
}

// TestGateRejectsBadSpec: a body the replicas would refuse gets its 400 at
// the gateway, which shares their decoder and key function, without
// reaching any replica: a field the spec does not hold (shards, backend,
// a misspelt seed), a negative value, data after the object, or an
// unknown scenario.
func TestGateRejectsBadSpec(t *testing.T) {
	g, gw, _, _ := fleet(t, 2, server.Config{})
	for _, body := range []string{
		`{"scenario":"fig10","shards":2}`,
		`{"scenario":"fig10","backend":"des"}`,
		`{"scenario":"fig10","backend":"async"}`,
		`{"scenario":"fig10","seeds":7}`,
		`{"scenario":"fig10","k":-1}`,
		`{"scenario":"fig10","max_rounds":-3}`,
		`{"scenario":"fig10"} x`,
		`{"scenario":"no-such-scenario"}`,
	} {
		resp, err := http.Post(gw.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte(`"type":"error"`)) {
			t.Errorf("body %s: status=%d response=%s, want a 400 error record", body, resp.StatusCode, data)
		}
		if rep := resp.Header.Get(headerReplica); rep != "" {
			t.Errorf("body %s: answered by replica %s, want the gateway", body, rep)
		}
	}
	if routed := g.Metrics().RoutedTotal; routed != 0 {
		t.Errorf("gateway routed %d bad specs to replicas, want 0", routed)
	}
}

// TestGateDrainRetryAndPeerAdoption: drain the replica owning a warm key,
// then request that key again. The gateway retries the refusal on the
// ring successor, which adopts the recording from the draining (still
// peek-serving) owner instead of re-running the engine — zero request
// loss AND zero duplicate engine work, with a byte-identical stream.
func TestGateDrainRetryAndPeerAdoption(t *testing.T) {
	g, gw, srvs, ts := fleet(t, 2, server.Config{})
	spec := speckey.Spec{Scenario: "fig10"}
	status, h, warmBody := postThrough(t, gw, spec, "")
	if status != http.StatusOK {
		t.Fatalf("warm-up status = %d", status)
	}
	ownerURL := h.Get(headerReplica)
	var owner *server.Server
	for i, s := range ts {
		if s.URL == ownerURL {
			owner = srvs[i]
		}
	}
	if owner == nil {
		t.Fatalf("X-Replica %q names no fleet member", ownerURL)
	}

	// Drain the owner (graceful: its healthz flips 503, new runs refused,
	// peeks still served). The gateway has NOT probed since — it discovers
	// the drain mid-request and must recover within that same request.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := owner.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	status, h, peerBody := postThrough(t, gw, spec, "")
	if status != http.StatusOK {
		t.Fatalf("post-drain status = %d, want 200 via retry", status)
	}
	if got := h.Get(headerReplica); got == ownerURL || got == "" {
		t.Fatalf("post-drain served by %q, want the surviving replica", got)
	}
	if got := h.Get(headerXCache); got != "peer" {
		t.Fatalf("post-drain X-Cache = %q, want peer (adopted from the draining owner)", got)
	}
	if !bytes.Equal(warmBody, peerBody) {
		t.Fatal("peer-adopted stream is not byte-identical to the original")
	}
	if got := g.retriesTotal.Load(); got < 1 {
		t.Errorf("retriesTotal = %d, want >= 1", got)
	}

	// The adopted entry is now local: the next request is a plain hit on
	// the survivor, no peering involved.
	_, h, _ = postThrough(t, gw, spec, "")
	if got := h.Get(headerXCache); got != "hit" {
		t.Errorf("third request X-Cache = %q, want hit", got)
	}
}

// TestGateStreamCancellationThroughProxy: a client that disconnects
// mid-stream AT THE GATEWAY propagates the cancellation through the
// proxied request to the replica, which aborts the run and rolls the
// surface back — the admission slot drains and the run is recorded as
// canceled, exactly as with a direct client.
func TestGateStreamCancellationThroughProxy(t *testing.T) {
	_, gw, srvs, _ := fleet(t, 1, server.Config{})
	s := srvs[0]
	// top=24 runs ~300ms: long enough that a disconnect propagating back
	// through two hops (client->gateway, gateway->replica) still lands
	// mid-run rather than racing the run's completion.
	body, _ := json.Marshal(speckey.Spec{Scenario: "slope", Params: map[string]int{"top": 24}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, gw.URL+"/v1/runs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream ended before the first record")
	}
	cancel() // disconnect mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap := s.Metrics().Snapshot()
		if snap.Canceled >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	snap := s.Metrics().Snapshot()
	if snap.Canceled < 1 {
		t.Fatalf("replica recorded %d cancellations after proxy-side disconnect, want >= 1 (completed=%d failed=%d requests=%d)",
			snap.Canceled, snap.Completed, snap.Failed, snap.Requests)
	}
	if snap.Completed != 0 {
		t.Errorf("replica recorded %d completions, want 0", snap.Completed)
	}

	// The slot freed: a follow-up through the gateway completes.
	status, _, data := postThrough(t, gw, speckey.Spec{Scenario: "fig10"}, "?stream=none")
	if status != http.StatusOK || !bytes.Contains(data, []byte(`"success":true`)) {
		t.Fatalf("follow-up after cancellation: status=%d body=%s", status, data[:min(len(data), 200)])
	}
}

// TestGateMetricsMergeAndHealth: the gateway /metrics document carries
// per-replica routing counters and the bucket-wise merged fleet snapshot;
// /healthz aggregates replica states.
func TestGateMetricsMergeAndHealth(t *testing.T) {
	_, gw, srvs, _ := fleet(t, 3, server.Config{})
	for i := 0; i < 6; i++ {
		spec := speckey.Spec{Scenario: "fig10", Seed: int64(i + 1)}
		if status, _, _ := postThrough(t, gw, spec, "?stream=none"); status != http.StatusOK {
			t.Fatalf("seed run %d: status %d", i, status)
		}
	}
	resp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc GatewayMetrics
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doc.Replicas) != 3 {
		t.Fatalf("metrics lists %d replicas, want 3", len(doc.Replicas))
	}
	var routed uint64
	for _, rp := range doc.Replicas {
		if !rp.Scraped {
			t.Errorf("replica %s not scraped into the merge", rp.URL)
		}
		routed += rp.Routed
	}
	if routed != doc.RoutedTotal || doc.RoutedTotal < 6 {
		t.Errorf("routed: per-replica sum %d, total %d, want equal and >= 6", routed, doc.RoutedTotal)
	}
	// The merged fleet counters must equal the sum over the live replicas.
	var wantRequests, wantCompleted uint64
	var wantRunCount uint64
	for _, s := range srvs {
		snap := s.Metrics().Snapshot()
		wantRequests += snap.Requests
		wantCompleted += snap.Completed
		wantRunCount += snap.Latency["run"].Count
	}
	if doc.Fleet.Requests != wantRequests || doc.Fleet.Completed != wantCompleted {
		t.Errorf("fleet requests/completed = %d/%d, want %d/%d",
			doc.Fleet.Requests, doc.Fleet.Completed, wantRequests, wantCompleted)
	}
	run := doc.Fleet.Latency["run"]
	if run.Count != wantRunCount {
		t.Errorf("merged run-phase count = %d, want %d", run.Count, wantRunCount)
	}
	var bucketSum uint64
	for _, c := range run.BucketsNS {
		bucketSum += c
	}
	if bucketSum != run.Count {
		t.Errorf("merged run-phase buckets sum to %d, count is %d — merge not bucket-exact", bucketSum, run.Count)
	}
	if run.Count > 0 && (run.P95NS < run.MinNS || run.P95NS > run.MaxNS) {
		t.Errorf("merged p95 %d outside [min %d, max %d]", run.P95NS, run.MinNS, run.MaxNS)
	}

	resp, err = http.Get(gw.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sbgate_routed_total", "sbgate_replica_routed_total",
		`sbserver_requests_total{state="completed"}`,
		`sbserver_phase_latency_ns_count{phase="run"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	hz, err := http.Get(gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Replicas []struct {
			State string `json:"state"`
		} `json:"replicas"`
	}
	_ = json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || health.Status != "ok" || len(health.Replicas) != 3 {
		t.Errorf("healthz = %d %+v, want 200 ok with 3 replicas", hz.StatusCode, health)
	}
}
