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

	"repro/internal/core"
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
// record; the scenario listing serves the registry. A body naming a field
// the spec does not hold is one of them: shards and backend change no
// result, and a misspelt field must not silently run the defaults.
func TestServerValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range []string{
		`{"scenario":"no-such-scenario"}`,
		`{"scenario":"tower","params":{"blocks":8}}`, // unknown param
		`{"scenario":"tower","params":{"n":7}}`,      // generator rejects odd towers
		// A side over core.MaxSurfaceSide, within the size budget.
		`{"scenario":"ridge","params":{"width":32800}}`,
		// Fields the spec does not hold, a misspelt seed, negative values
		// and data after the object.
		`{"scenario":"fig10","shards":2}`,
		`{"scenario":"fig10","backend":"des"}`,
		`{"scenario":"fig10","backend":"async"}`,
		`{"scenario":"fig10","seeds":7}`,
		`{"scenario":"fig10","k":-1}`,
		`{"scenario":"fig10","max_rounds":-3}`,
		`{"scenario":"fig10"} x`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rec streamRecord
		_ = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || rec.Type != "error" {
			t.Errorf("body %s: status=%d record=%+v, want 400 error", body, resp.StatusCode, rec)
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
// disconnect mid-run, and every surviving stream stays ordered and
// completes successfully; a follow-up request still gets served. On the
// cacheable path the identical specs share one run, which goes on for the
// clients still attached. Under ?cache=bypass every client owns its run,
// so a disconnect aborts that client's run and nothing else: exactly the
// three survivors' runs succeed on the engine. Every run is held at its
// first event until the three disconnects are recorded, so a leaving
// client's run is still in the engine when its disconnect lands (a run
// that finished first would rightly count as a completion).
func TestServerCancellationUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		bypass     bool
	}{
		{name: "cacheable", path: "/v1/runs"},
		{name: "bypass", path: "/v1/runs?cache=bypass", bypass: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := testServer(t, Config{})
			// Slope top=12 takes about 71,500 events, so a released run
			// that was cancelled meets the DES's next context check (one
			// every 4,096 events) long before it could finish.
			release := make(chan struct{})
			s.observe = core.ObserverFunc(func(core.Event) { <-release })
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
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+tc.path, bytes.NewReader(spec))
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
			// A cancellation is counted only after its client detached, so
			// once all three show, each leaving client's private run already
			// has its context cancelled.
			deadline := time.Now().Add(10 * time.Second)
			for s.Metrics().Snapshot().Canceled < n/2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			close(release)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}

			// The aborted runs must release their admission slots and be
			// recorded as cancellations, not completions.
			deadline = time.Now().Add(10 * time.Second)
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
			if tc.bypass && snap.Engine.Successes != n/2 {
				t.Errorf("engine successes = %d, want %d: one per client that stayed", snap.Engine.Successes, n/2)
			}

			// Admission slots freed: one more run completes normally.
			if status, recs := postRun(t, ts, RunSpec{Scenario: "fig10"}); status != http.StatusOK ||
				len(recs) == 0 || !recs[len(recs)-1].Success {
				t.Fatalf("follow-up run after cancellations failed: status=%d", status)
			}
		})
	}
}

// TestServerGracefulShutdownDrain: Shutdown with headroom lets the
// in-flight ?stream=none run finish — its client receives the complete
// result. Shutdown past its deadline force-cancels the run instead: the
// client, still connected, gets 503 and the run counts as failed, not as a
// client cancellation. Either way later submissions are refused with 503.
func TestServerGracefulShutdownDrain(t *testing.T) {
	for _, tc := range []struct {
		name              string
		top               int
		grace             time.Duration
		status            int
		completed, failed uint64
	}{
		{name: "drain", top: 12, grace: 30 * time.Second, status: http.StatusOK, completed: 1},
		{name: "force", top: 24, status: http.StatusServiceUnavailable, failed: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := testServer(t, Config{})
			type answer struct {
				status int
				rec    streamRecord
			}
			got := make(chan answer, 1)
			go func() {
				body, _ := json.Marshal(RunSpec{Scenario: "slope", Params: scenario.Params{"top": tc.top}})
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
			// Wait until the run is admitted, then shut down.
			deadline := time.Now().Add(5 * time.Second)
			for s.Metrics().Snapshot().Requests == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			ctx, cancel := context.WithTimeout(context.Background(), tc.grace)
			defer cancel()
			if err := s.Shutdown(ctx); (err == nil) != (tc.grace > 0) {
				t.Fatalf("shutdown returned %v with %v grace", err, tc.grace)
			}
			a := <-got
			if a.status != tc.status {
				t.Fatalf("in-flight run answered status=%d record=%+v, want %d", a.status, a.rec, tc.status)
			}
			if tc.status == http.StatusOK && (a.rec.Type != "result" || !a.rec.Success) {
				t.Fatalf("drained run answered record=%+v, want a complete result", a.rec)
			}
			if snap := s.Metrics().Snapshot(); snap.Completed != tc.completed || snap.Failed != tc.failed || snap.Canceled != 0 {
				t.Errorf("completed=%d failed=%d canceled=%d, want %d/%d/0",
					snap.Completed, snap.Failed, snap.Canceled, tc.completed, tc.failed)
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
		})
	}
}

// TestServerRequestsCompleteIndependently: fig10 posted together with a
// run about 60x longer answers at its own run end. Its terminal record
// arrives while the long run is still streaming, and its run_ns is its own
// run's time, not the long run's. The two runs share the CPUs, which can
// slow fig10 to about three times its solo time; the long run (slope
// top=40, 820 blocks) is long enough to keep the 10x bound clear of that.
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
	go post(RunSpec{Scenario: "slope", Params: scenario.Params{"top": 40}}, longCh)
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
// already passed, Shutdown force-cancels the in-flight run of a private
// flight; the flight completes with an error outcome and its surface is
// left connected with every block accounted for (the engine rolls back to
// an atomic motion boundary).
func TestServerShutdownForceCancelRollsBack(t *testing.T) {
	s := New(Config{})
	scen, cfg, err := buildSpec(RunSpec{Scenario: "slope", Params: scenario.Params{"top": 16}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := scen.Surface.NumBlocks()
	f := newFlight(s.runCtx, "", scen.Name, true)
	_, wake := f.subscribe()
	if err := s.submit(&runReq{scen: scen, cfg: cfg, flight: f}); err != nil {
		t.Fatal(err)
	}
	// First wake-up: the run is producing events, i.e. in flight.
	select {
	case <-wake:
	case <-time.After(10 * time.Second):
		t.Fatal("run produced no events within 10s")
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); err == nil {
		t.Fatal("force shutdown returned nil, want the deadline error")
	}
	<-f.doneCh
	if out, _ := f.outcome(); out.err == nil {
		t.Fatal("force-cancelled run returned a nil error")
	}
	if !scen.Surface.Connected() {
		t.Error("force-cancelled surface is disconnected")
	}
	if got := scen.Surface.NumBlocks(); got != blocks {
		t.Errorf("force-cancelled surface has %d blocks, want %d", got, blocks)
	}
}

// TestServerRefusedLeaderFollowers: a leader joins its flight before
// admission, so a follower can attach to a flight whose leader is then
// refused. In every response shape the follower gets the leader's refusal
// — 429 for a full queue, 503 while draining — counted rejected, so a
// gateway may retry it. The completed flight's context is done, so it no
// longer hangs off the server's run context.
func TestServerRefusedLeaderFollowers(t *testing.T) {
	for _, refusal := range []struct {
		err    error
		status int
	}{{ErrQueueFull, http.StatusTooManyRequests}, {ErrStopped, http.StatusServiceUnavailable}} {
		for _, mode := range []string{"ndjson", "sse", "none"} {
			s, ts := testServer(t, Config{})
			spec := RunSpec{Scenario: "fig10"}
			key, err := spec.Key(s.cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			f, leader := s.flights.join(key, spec.Scenario)
			if !leader {
				t.Fatal("the test did not lead the flight")
			}
			status := make(chan int, 1)
			go func() {
				body, _ := json.Marshal(spec)
				resp, err := http.Post(ts.URL+"/v1/runs?stream="+mode, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					status <- 0
					return
				}
				resp.Body.Close()
				status <- resp.StatusCode
			}()
			deadline := time.Now().Add(5 * time.Second)
			for s.Metrics().Snapshot().Cache.Coalesced == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			// What handleRuns does when submit refuses the leader.
			s.finishFlight(f, runOutcome{err: refusal.err}, wireTiming{})
			f.detach()
			if got := <-status; got != refusal.status {
				t.Errorf("%v, stream=%s: follower status = %d, want %d", refusal.err, mode, got, refusal.status)
			}
			if snap := s.Metrics().Snapshot(); snap.Rejected != 1 || snap.Failed != 0 {
				t.Errorf("%v, stream=%s: rejected=%d failed=%d, want 1 and 0",
					refusal.err, mode, snap.Rejected, snap.Failed)
			}
			if f.ctx.Err() == nil {
				t.Errorf("%v, stream=%s: the completed flight's context is not done", refusal.err, mode)
			}
		}
	}
}

// TestFlightTableReplacesAbandonedFlight: when the last client of an
// unfinished flight detaches, its run is cancelled, but the flight stays
// indexed until the run returns. An identical request arriving in that
// window must lead a fresh flight, not follow the cancelled one, and the
// abandoned run's completion must leave the fresh flight indexed.
func TestFlightTableReplacesAbandonedFlight(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	const key = "abandoned-flight-key"
	old, leader := s.flights.join(key, "fig10")
	if !leader {
		t.Fatal("the first join did not lead")
	}
	old.detach() // the only client leaves: the run is cancelled
	if old.ctx.Err() == nil {
		t.Fatal("detaching the last client did not cancel the run")
	}
	fresh, leader := s.flights.join(key, "fig10")
	if !leader || fresh == old {
		t.Fatalf("a join after abandonment followed the cancelled flight (leader=%t)", leader)
	}
	if fresh.ctx.Err() != nil {
		t.Fatal("the fresh flight's context is already done")
	}
	// The abandoned run returns with its cancellation.
	s.finishFlight(old, runOutcome{err: context.Canceled}, wireTiming{})
	again, leader := s.flights.join(key, "fig10")
	if leader || again != fresh {
		t.Fatalf("completing the abandoned flight unindexed the fresh one (leader=%t)", leader)
	}
	again.detach()
	s.finishFlight(fresh, runOutcome{err: context.Canceled}, wireTiming{})
	fresh.detach()
}

// TestLoadgen: the closed-loop generator drives the service end to end on
// the default config and accounts for every request, in three shapes.
// Cached is a small load on one spec. Bypass has 32 clients each make one
// engine run at once, and all of them must complete: admission must not
// refuse them and no run may fail. Mixed makes a quarter of 16 engine runs
// bulk: overload may shed as 429s but never as failures, and interactive
// requests are never refused.
func TestLoadgen(t *testing.T) {
	for _, tc := range []struct {
		name        string
		load        LoadConfig
		allComplete bool // no request may be refused either
	}{
		{name: "cached", load: LoadConfig{Clients: 4, PerClient: 2}, allComplete: true},
		{name: "bypass", load: LoadConfig{Clients: 32, PerClient: 1, CacheMode: "bypass"}, allComplete: true},
		{name: "mixed", load: LoadConfig{Clients: 16, PerClient: 1, CacheMode: "bypass", BulkFraction: 0.25}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := testServer(t, Config{})
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
