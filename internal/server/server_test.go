package server

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
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// totalPending sums the per-class admission counters.
func totalPending(s *Server) int64 {
	var n int64
	for c := 0; c < numClasses; c++ {
		n += s.pending[c].Load()
	}
	return n
}

// testServer builds a server plus its HTTP front; both are torn down with
// the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// streamRecord is the superset wire record the tests decode every NDJSON
// line into.
type streamRecord struct {
	Type    string `json:"type"`
	Kind    string `json:"kind"`
	Round   int    `json:"round"`
	Success bool   `json:"success"`
	Hops    int    `json:"hops"`
	Rounds  int    `json:"rounds"`
	Error   string `json:"error"`
	Timing  struct {
		EnqueueNS int64 `json:"enqueue_ns"`
		RunNS     int64 `json:"run_ns"`
	} `json:"timing"`
}

// postRun issues one run request and decodes the full NDJSON stream.
func postRun(t *testing.T, ts *httptest.Server, spec RunSpec) (int, []streamRecord) {
	t.Helper()
	status, recs, err := streamRun(ts.URL+"/v1/runs", spec)
	if err != nil {
		t.Fatal(err)
	}
	return status, recs
}

// streamRun is postRun for any goroutine: it reports failures as an error.
func streamRun(url string, spec RunSpec) (int, []streamRecord, error) {
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	var recs []streamRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return 0, nil, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return resp.StatusCode, recs, sc.Err()
}

// TestServerRunEndToEnd: a streamed fig10 run returns the live event
// stream in order and ends with the golden result — 109 block moves, the
// same run the engine produces directly, so the service layer does not
// perturb engine semantics.
func TestServerRunEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, recs := postRun(t, ts, RunSpec{Scenario: "fig10"})
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(recs) < 3 {
		t.Fatalf("stream has %d records, want events plus a result", len(recs))
	}
	last := recs[len(recs)-1]
	if last.Type != "result" || !last.Success {
		t.Fatalf("terminal record = %+v, want a successful result", last)
	}
	if last.Hops != 109 {
		t.Errorf("fig10 over the service moved %d blocks, want the golden 109", last.Hops)
	}
	if last.Timing.RunNS <= 0 || last.Timing.EnqueueNS < 0 {
		t.Errorf("implausible phase timing %+v", last.Timing)
	}
	kinds := map[string]bool{}
	lastRound := 0
	for _, rec := range recs[:len(recs)-1] {
		if rec.Type != "event" {
			t.Fatalf("mid-stream record of type %q", rec.Type)
		}
		kinds[rec.Kind] = true
		if rec.Kind == "round-started" {
			if rec.Round < lastRound {
				t.Fatalf("rounds regressed: %d after %d", rec.Round, lastRound)
			}
			lastRound = rec.Round
		}
	}
	for _, want := range []string{"round-started", "election-decided", "motion-applied", "terminated", "message-stats"} {
		if !kinds[want] {
			t.Errorf("stream missing %q events", want)
		}
	}
}

// TestServerResultOnly: ?stream=none answers with the single result
// record.
func TestServerResultOnly(t *testing.T) {
	_, ts := testServer(t, Config{})
	body, _ := json.Marshal(RunSpec{Scenario: "fig10"})
	resp, err := http.Post(ts.URL+"/v1/runs?stream=none", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec streamRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || rec.Type != "result" || !rec.Success {
		t.Fatalf("status=%d record=%+v, want a 200 success result", resp.StatusCode, rec)
	}
}

// TestServerSSE: Accept: text/event-stream switches the framing to SSE
// data frames carrying the same records.
func TestServerSSE(t *testing.T) {
	_, ts := testServer(t, Config{})
	body, _ := json.Marshal(RunSpec{Scenario: "fig10"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(body))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(data, []byte("data: ")) || !bytes.Contains(data, []byte(`"type":"result"`)) {
		t.Fatalf("SSE body missing data frames or result record:\n%s", data[:min(len(data), 400)])
	}
}

// TestServerValidation: client errors come back as 400 with a JSON error
// record; the scenario listing serves the registry. The server runs only
// the DES, so a spec naming the goroutine runtime ("async") is one of them.
func TestServerValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, spec := range []RunSpec{
		{Scenario: "no-such-scenario"},
		{Scenario: "fig10", Backend: "quantum"},
		{Scenario: "fig10", Backend: "async"},
		{Scenario: "tower", Params: scenario.Params{"blocks": 8}}, // unknown param
		{Scenario: "tower", Params: scenario.Params{"n": 7}},      // generator rejects odd towers
		{Scenario: "fig10", K: -1},
	} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rec streamRecord
		_ = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || rec.Type != "error" {
			t.Errorf("spec %+v: status=%d record=%+v, want 400 error", spec, resp.StatusCode, rec)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gens []scenario.Generator
	if err := json.NewDecoder(resp.Body).Decode(&gens); err != nil {
		t.Fatal(err)
	}
	if len(gens) != len(scenario.Generators()) {
		t.Errorf("scenario listing has %d generators, registry has %d", len(gens), len(scenario.Generators()))
	}
}

// TestServerRejectsOversizedSpec: a spec over the scenario size budget is a
// client error, answered 400 before any surface is built, and the replica
// keeps serving: fig10 right after still makes its 109 block moves. The
// 300x300 blob (90,000 blocks) is over scenario.MaxBlocks yet cheap enough
// to build that a server without the budget answers 200 and starts the
// run; a much larger one would exhaust the replica's memory instead.
func TestServerRejectsOversizedSpec(t *testing.T) {
	_, ts := testServer(t, Config{})
	body, _ := json.Marshal(RunSpec{Scenario: "blob", Params: scenario.Params{"w": 300, "h": 300, "rise": 302}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized spec: status = %d, want 400", resp.StatusCode)
	} else {
		var rec streamRecord
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil ||
			rec.Type != "error" || !strings.Contains(rec.Error, "budget") {
			t.Errorf("oversized spec: record = %+v (decode err %v), want a budget error", rec, err)
		}
	}
	resp.Body.Close() // a started run loses its only client and is cancelled

	status, recs := postRun(t, ts, RunSpec{Scenario: "fig10"})
	if status != http.StatusOK || len(recs) == 0 {
		t.Fatalf("fig10 after the oversized spec: status = %d, %d records", status, len(recs))
	}
	if last := recs[len(recs)-1]; last.Type != "result" || !last.Success || last.Hops != 109 {
		t.Errorf("fig10 after the oversized spec: %+v, want a 109-hop success", last)
	}
}

// TestServerBackpressure: a full admission queue answers 429 without
// queueing; a draining server answers 503 and fails health checks.
func TestServerBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{QueueCap: 4})
	s.pending[classInteractive].Store(4) // queue artificially at capacity
	body, _ := json.Marshal(RunSpec{Scenario: "fig10"})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status at capacity = %d, want 429", resp.StatusCode)
	}
	s.pending[classInteractive].Store(0)

	s.draining.Store(true)
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hz.StatusCode)
	}
	s.draining.Store(false)

	snap := s.Metrics().Snapshot()
	if snap.Rejected != 2 {
		t.Errorf("rejected = %d, want 2", snap.Rejected)
	}
}

// TestServerMetricsEndpoint: after a served run the snapshot carries the
// request counters, all three phase latencies and the folded engine
// summary; ?format=prometheus renders the text exposition.
func TestServerMetricsEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{})
	if status, _ := postRun(t, ts, RunSpec{Scenario: "fig10"}); status != http.StatusOK {
		t.Fatalf("seed run status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests < 1 || snap.Completed < 1 {
		t.Errorf("counters not advanced: %+v", snap)
	}
	for _, phase := range phaseNames {
		if snap.Latency[phase].Count < 1 {
			t.Errorf("phase %q has no samples", phase)
		}
	}
	if snap.Engine.Successes < 1 || snap.Engine.Motions < 1 || len(snap.Engine.MovesHist) == 0 {
		t.Errorf("engine summary not folded: %+v", snap.Engine)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`sbserver_requests_total{state="completed"}`,
		`sbserver_phase_latency_ns_count{phase="run"}`,
		"sbserver_engine_motions_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	_ = s
}

// TestServerCancellationUnderLoad: half the clients of a loaded server
// disconnect mid-run. Their runs are aborted (freeing admission slots),
// and every surviving stream stays ordered and completes successfully; a
// follow-up request still gets served.
func TestServerCancellationUnderLoad(t *testing.T) {
	s, ts := testServer(t, Config{})
	const n = 6
	spec, _ := json.Marshal(RunSpec{Scenario: "slope", Params: scenario.Params{"top": 12}})

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(spec))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
			lastRound, sawResult := 0, false
			for sc.Scan() {
				var rec streamRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					continue
				}
				if rec.Kind == "round-started" {
					if rec.Round < lastRound {
						errs[i] = fmt.Errorf("rounds regressed: %d after %d", rec.Round, lastRound)
						return
					}
					lastRound = rec.Round
				}
				if i%2 == 1 {
					cancel() // disconnect after the first streamed record
					return
				}
				if rec.Type == "result" {
					sawResult = rec.Success
				}
				if rec.Type == "error" {
					errs[i] = fmt.Errorf("stream error: %s", rec.Error)
					return
				}
			}
			if !sawResult {
				errs[i] = fmt.Errorf("stream ended without a successful result")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}

	// The aborted runs must release their admission slots and be recorded
	// as cancellations, not completions.
	deadline := time.Now().Add(10 * time.Second)
	for totalPending(s) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := totalPending(s); got != 0 {
		t.Fatalf("pending = %d after all clients finished, want 0", got)
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != n/2 || snap.Canceled != n/2 {
		t.Errorf("completed=%d canceled=%d, want %d and %d", snap.Completed, snap.Canceled, n/2, n/2)
	}

	// Admission slots freed: one more run completes normally.
	if status, recs := postRun(t, ts, RunSpec{Scenario: "fig10"}); status != http.StatusOK ||
		len(recs) == 0 || !recs[len(recs)-1].Success {
		t.Fatalf("follow-up run after cancellations failed: status=%d", status)
	}
}

// TestServerGracefulShutdownDrain: Shutdown with headroom lets the
// in-flight run finish — its client receives the complete result — and
// later submissions are refused with 503.
func TestServerGracefulShutdownDrain(t *testing.T) {
	s, ts := testServer(t, Config{})
	type answer struct {
		status int
		rec    streamRecord
	}
	got := make(chan answer, 1)
	go func() {
		body, _ := json.Marshal(RunSpec{Scenario: "slope", Params: scenario.Params{"top": 12}})
		resp, err := http.Post(ts.URL+"/v1/runs?stream=none", "application/json", bytes.NewReader(body))
		if err != nil {
			got <- answer{}
			return
		}
		defer resp.Body.Close()
		var rec streamRecord
		_ = json.NewDecoder(resp.Body).Decode(&rec)
		got <- answer{resp.StatusCode, rec}
	}()
	// Wait until the run is admitted, then drain with generous headroom.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Snapshot().Requests == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown returned %v, want nil", err)
	}
	a := <-got
	if a.status != http.StatusOK || a.rec.Type != "result" || !a.rec.Success {
		t.Fatalf("drained run answered status=%d record=%+v, want a complete 200 result", a.status, a.rec)
	}
	body, _ := json.Marshal(RunSpec{Scenario: "fig10"})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status = %d, want 503", resp.StatusCode)
	}
}

// TestServerRequestsCompleteIndependently: fig10 posted together with a
// run about 60x longer answers at its own run end. Its terminal record
// arrives while the long run is still streaming, and its run_ns is its own
// run's time, not the long run's.
func TestServerRequestsCompleteIndependently(t *testing.T) {
	_, ts := testServer(t, Config{})
	type answer struct {
		status int
		recs   []streamRecord
		err    error
	}
	start := make(chan struct{})
	post := func(spec RunSpec, out chan<- answer) {
		<-start
		status, recs, err := streamRun(ts.URL+"/v1/runs", spec)
		out <- answer{status, recs, err}
	}
	longCh, figCh := make(chan answer, 1), make(chan answer, 1)
	go post(RunSpec{Scenario: "slope", Params: scenario.Params{"top": 24}}, longCh)
	go post(RunSpec{Scenario: "fig10"}, figCh)
	close(start)

	fig := <-figCh
	select {
	case <-longCh:
		t.Fatal("fig10 answered only after the long run had finished")
	default:
	}
	long := <-longCh
	var res [2]streamRecord
	for i, a := range []answer{fig, long} {
		if a.err != nil || a.status != http.StatusOK || len(a.recs) == 0 {
			t.Fatalf("run %d: status=%d err=%v records=%d", i, a.status, a.err, len(a.recs))
		}
		if res[i] = a.recs[len(a.recs)-1]; res[i].Type != "result" || !res[i].Success {
			t.Fatalf("run %d: terminal record %+v, want a successful result", i, res[i])
		}
	}
	if res[0].Hops != 109 {
		t.Errorf("fig10 moved %d blocks, want the golden 109", res[0].Hops)
	}
	if figNS, longNS := res[0].Timing.RunNS, res[1].Timing.RunNS; figNS*10 > longNS {
		t.Errorf("fig10 run_ns=%d against the long run's %d, want its own far shorter run time", figNS, longNS)
	}
}

// TestServerShutdownRacesSubmissions: clients keep posting while Shutdown
// runs. Every request is either refused with 503 or answered with a
// complete 200 result, and Shutdown returns only once every admitted
// request has had its outcome delivered.
func TestServerShutdownRacesSubmissions(t *testing.T) {
	s, ts := testServer(t, Config{})
	const clients = 8
	var wg sync.WaitGroup
	defer wg.Wait() // every client stops at its first 503
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				// Fresh seeds make every request an engine run; odd clients
				// take the uncacheable path, even ones the singleflight path.
				spec := RunSpec{Scenario: "fig10", Seed: int64(c*10_000 + i)}
				path := "/v1/runs?stream=none"
				if c%2 == 1 {
					path += "&cache=bypass"
				}
				body, _ := json.Marshal(spec)
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var rec streamRecord
				decErr := json.NewDecoder(resp.Body).Decode(&rec)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
				if resp.StatusCode != http.StatusOK || decErr != nil || rec.Type != "result" || !rec.Success {
					t.Errorf("client %d: status=%d record=%+v err=%v, want 503 or a complete 200 result",
						c, resp.StatusCode, rec, decErr)
					return
				}
			}
		}()
	}

	// Shut down while every client is mid-loop.
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().Snapshot().Completed < clients && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown returned %v, want nil", err)
	}
	if n := totalPending(s); n != 0 {
		t.Errorf("pending = %d when Shutdown returned, want 0", n)
	}
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Error("inflight still non-zero 5s after Shutdown returned")
	}
}

// TestServerShutdownForceCancelRollsBack: when the drain deadline has
// already passed, Shutdown force-cancels the in-flight run; the request
// gets an error outcome and its surface is left connected with every
// block accounted for (the engine rolls back to an atomic motion
// boundary).
func TestServerShutdownForceCancelRollsBack(t *testing.T) {
	s := New(Config{})
	scen, cfg, err := buildSpec(RunSpec{Scenario: "slope", Params: scenario.Params{"top": 16}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := scen.Surface.NumBlocks()
	req := &runReq{
		ctx:   context.Background(),
		scen:  scen,
		cfg:   cfg,
		spool: newEventSpool(),
		done:  make(chan runOutcome, 1),
	}
	if err := s.submit(req); err != nil {
		t.Fatal(err)
	}
	// First spool wake-up: the run is producing events, i.e. in flight.
	select {
	case <-req.spool.wake:
	case <-time.After(10 * time.Second):
		t.Fatal("run produced no events within 10s")
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); err == nil {
		t.Fatal("force shutdown returned nil, want the deadline error")
	}
	out := <-req.done
	if out.err == nil {
		t.Fatal("force-cancelled run returned a nil error")
	}
	if !scen.Surface.Connected() {
		t.Error("force-cancelled surface is disconnected")
	}
	if got := scen.Surface.NumBlocks(); got != blocks {
		t.Errorf("force-cancelled surface has %d blocks, want %d", got, blocks)
	}
}

// TestLoadgen: the closed-loop generator drives the service end to end
// and accounts for every request, in three shapes. Cached is a small load
// on one spec. Bypass has 32 clients each make one engine run at once on
// the default config, and all of them must complete: admission must not
// refuse them and no run may fail. SLO mixes a quarter bulk requests into
// 16 engine runs under a 5 s run-phase SLO: overload may shed as 429s but
// never as failures, and interactive requests are never refused.
func TestLoadgen(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         Config
		load        LoadConfig
		allComplete bool // no request may be refused either
	}{
		{name: "cached", load: LoadConfig{Clients: 4, PerClient: 2}, allComplete: true},
		{name: "bypass", load: LoadConfig{Clients: 32, PerClient: 1, CacheMode: "bypass"}, allComplete: true},
		{name: "slo", cfg: Config{SLO: 5 * time.Second},
			load: LoadConfig{Clients: 16, PerClient: 1, CacheMode: "bypass", BulkFraction: 0.25}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := testServer(t, tc.cfg)
			lc := tc.load
			lc.BaseURL, lc.Client, lc.Spec = ts.URL, ts.Client(), RunSpec{Scenario: "fig10"}
			rep, err := RunLoad(context.Background(), lc)
			if err != nil {
				t.Fatal(err)
			}
			total := lc.Clients * lc.PerClient
			if rep.Requests != total || rep.Failed != 0 {
				t.Fatalf("load report %+v, want %d requests and no failures", rep, total)
			}
			if inter := rep.PerClass["interactive"]; inter.Rejected > 0 {
				t.Errorf("%d interactive requests refused", inter.Rejected)
			}
			if tc.allComplete && (rep.Completed != total || rep.Rejected != 0) {
				t.Errorf("load report %+v, want %d/%d completed", rep, total, total)
			}
			if lc.CacheMode == "bypass" && rep.Bypassed != rep.Completed {
				t.Errorf("%d of %d completed requests bypassed the cache, want all", rep.Bypassed, rep.Completed)
			}
			if rep.RunsPerSec <= 0 || rep.Events == 0 || rep.P95NS < rep.P50NS {
				t.Errorf("implausible load report %+v", rep)
			}
		})
	}
}
