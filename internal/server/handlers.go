package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/server/speckey"
)

// routes wires the HTTP surface:
//
//	POST /v1/runs       run a scenario; NDJSON event stream by default,
//	                    SSE under Accept: text/event-stream or ?stream=sse,
//	                    single JSON result under ?stream=none.
//	                    ?class=bulk demotes to the bulk priority class;
//	                    ?cache=bypass skips the result cache.
//	GET  /v1/scenarios  the scenario registry (names, docs, parameters)
//	GET  /v1/peek       cache-only lookup by canonical key (peering; never
//	                    runs the engine)
//	GET  /metrics       service counters; JSON, or Prometheus text under
//	                    ?format=prometheus (or Accept: text/plain)
//	GET  /healthz       200 while serving, 503 while draining
func (s *Server) routes() {
	s.mux.HandleFunc("/v1/runs", s.handleRuns)
	s.mux.HandleFunc("/v1/peek", s.handlePeek)
	s.mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
}

// httpError writes a JSON error record with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireError{Type: "error", Error: fmt.Sprintf(format, args...)})
}

// streamMode resolves the response shape for a run request.
func streamMode(r *http.Request) string {
	switch r.URL.Query().Get("stream") {
	case "none", "0", "false":
		return "none"
	case "sse":
		return "sse"
	case "", "ndjson":
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return "sse"
	}
	return "ndjson"
}

// Request priority classes. Interactive is the default: streamed runs a
// human (or a latency-sensitive caller) is waiting on. Bulk (?class=bulk)
// is for parameter sweeps and batch jobs that care about aggregate
// throughput, not tail latency. Each class has its own fixed admission
// limit (see Config.QueueCap): bulk's is the smaller share, and a sweep
// that fills it never takes an interactive request's slot.
const (
	classInteractive = iota
	classBulk
	numClasses
)

var classNames = [numClasses]string{"interactive", "bulk"}

// classOf resolves the request's priority class (?class=bulk demotes).
func classOf(r *http.Request) (int, error) {
	switch r.URL.Query().Get("class") {
	case "", "interactive":
		return classInteractive, nil
	case "bulk":
		return classBulk, nil
	default:
		return 0, fmt.Errorf("server: unknown class %q (want \"interactive\" or \"bulk\")",
			r.URL.Query().Get("class"))
	}
}

// cacheBypassed reports whether the request opted out of the result cache.
func cacheBypassed(r *http.Request) bool {
	switch r.URL.Query().Get("cache") {
	case "bypass", "off", "false", "0":
		return true
	}
	return false
}

// outcomeOf classifies a delivered outcome for the per-class counters. A
// run is canceled only when its own client went away; a run the server
// force-cancelled at shutdown failed.
func outcomeOf(r *http.Request, err error) int {
	switch {
	case err == nil:
		return outcomeCompleted
	case r.Context().Err() != nil:
		return outcomeCanceled
	default:
		return outcomeFailed
	}
}

// The X-Cache response header tells the client how its run was served.
const (
	headerXCache   = "X-Cache"
	xcacheHit      = "hit"       // replayed from the result cache
	xcacheMiss     = "miss"      // ran on the engine (and, if it succeeds, fills the cache)
	xcacheBypass   = "bypass"    // ?cache=bypass: run on the engine, cache untouched
	xcacheCoalesce = "coalesced" // attached to an identical in-flight run
	xcachePeer     = "peer"      // adopted from a peer replica's cache (no engine run)
)

// handleRuns admits one run request and answers it. The fast paths come
// first: every run is a deterministic DES run, so a spec is canonicalized
// into its cache key; a cache hit replays the recorded run without touching
// the engine, and a spec identical to an in-flight run attaches to that
// flight as a follower instead of enqueueing a duplicate. Only a leader —
// the first request for its key — pays admission (429 over the class
// limit, 503 draining) and an engine run. A ?cache=bypass request leads a
// private flight of its own. Every engine run is answered by respondFlight,
// and every response carries X-Cache: hit, miss, bypass, coalesced or
// peer.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	class, err := classOf(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := speckey.Decode(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	scen, cfg, err := buildSpec(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A draining replica refuses ALL new runs — cache hits included — so a
	// gateway discovers the drain on the first request it routes here and
	// rebalances the whole key segment at once, instead of dribbling 503s
	// only on the cold keys. In-flight streams are unaffected; /v1/peek
	// stays up so the successor can adopt this replica's warm entries.
	if s.Draining() {
		s.rejectRequest(w, class, ErrStopped)
		return
	}
	mode := streamMode(r)
	// Every run response names its canonical identity: the gateway hashes
	// this same key for affinity routing, and clients can use it to
	// correlate, dedupe or /v1/peek. buildSpec already validated the spec,
	// so Key cannot fail here; the guard is belt-and-braces.
	key, keyErr := spec.Key(s.cfg.Seed)
	if keyErr == nil {
		w.Header().Set(headerSpecKey, key)
	}

	// A DES run is a pure function of its key, so it is cached and
	// coalesced unless the client opted out.
	var f *flight
	if !cacheBypassed(r) && keyErr == nil {
		if e, ok := s.cache.get(key); ok {
			s.metrics.recordAccept(class)
			w.Header().Set(headerXCache, xcacheHit)
			s.respondCached(w, r, class, e, mode)
			return
		}
		var leader bool
		f, leader = s.flights.join(key, scen.Name)
		if !leader {
			s.metrics.recordAccept(class)
			s.metrics.recordCoalesced()
			w.Header().Set(headerXCache, xcacheCoalesce)
			s.respondFlight(w, r, f, class, mode, nil)
			return
		}
		// Leader on a cold key: before paying for an engine run, ask the
		// peer the gateway named (the key's previous ring owner) whether
		// it still holds the recording. On a probe hit the adopted entry
		// completes the flight exactly as a finished run would — it fills
		// the local cache, feeds the shared event history, and any
		// coalesced followers replay it; on any probe failure we fall
		// through to the engine path unchanged.
		if peer := r.Header.Get(headerPeerProbe); peer != "" && s.cfg.PeerProbe {
			if e, ok := s.probePeer(r.Context(), peer, key); ok {
				s.cache.put(e)
				for _, ev := range e.events {
					f.OnEvent(ev)
				}
				s.flights.remove(f)
				f.complete(runOutcome{res: e.res}, e.timing)
				s.metrics.recordAccept(class)
				s.metrics.recordPeer()
				w.Header().Set(headerXCache, xcachePeer)
				s.respondFlight(w, r, f, class, mode, nil)
				return
			}
		}
	} else {
		f = newFlight(s.runCtx, key, scen.Name, true)
	}
	req := &runReq{scen: scen, cfg: cfg, seed: spec.Seed, class: class, flight: f}
	if err := s.submit(req); err != nil {
		// Fail the flight before answering: any follower that raced in
		// gets the same refusal.
		s.finishFlight(f, runOutcome{err: err}, wireTiming{})
		f.detach()
		s.rejectRequest(w, class, err)
		return
	}
	s.metrics.recordAccept(class)
	xcache := xcacheMiss
	if f.private {
		s.metrics.recordBypass()
		xcache = xcacheBypass
	}
	w.Header().Set(headerXCache, xcache)
	s.respondFlight(w, r, f, class, mode, req)
}

// rejectRequest files and writes an admission refusal.
func (s *Server) rejectRequest(w http.ResponseWriter, class int, err error) {
	s.metrics.recordReject(class)
	switch err {
	case ErrQueueFull:
		httpError(w, http.StatusTooManyRequests, "%v", err)
	default:
		httpError(w, http.StatusServiceUnavailable, "server draining: %v", err)
	}
}

// streamWriter sets the stream headers and returns the per-record writer
// and flusher for the chosen framing.
func streamWriter(w http.ResponseWriter, sse bool) (write func(any), flush func()) {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	write = func(v any) {
		if sse {
			data, err := json.Marshal(v)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
		} else {
			_ = json.NewEncoder(w).Encode(v)
		}
	}
	flush = func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	return write, flush
}

// respondCached replays a memoized run: the recorded events and result
// render through the same encoders as a live run, so the body is
// byte-identical to the response the original engine run produced.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, class int, e *cacheEntry, mode string) {
	start := time.Now()
	if mode == "none" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resultRecord(e.scenName, e.res, e.timing))
	} else {
		write, flush := streamWriter(w, mode == "sse")
		for _, ev := range e.events {
			write(toWire(ev))
		}
		write(resultRecord(e.scenName, e.res, e.timing))
		flush()
	}
	s.metrics.recordDone(class, outcomeCompleted)
	s.metrics.recordRespond(time.Since(start))
}

// respondFlight answers a request attached to a flight: the leader (req
// non-nil) and every coalesced follower (req nil) tail the same
// append-only event history, so each client gets the full stream from
// index zero regardless of when it attached. The status is committed only
// once the flight has an event or an outcome: a flight whose leader was
// refused at admission has neither, so each of its clients is refused
// too (429 or 503) and may retry. A client disconnect detaches that client
// alone; the run is cancelled only when the last one leaves.
func (s *Server) respondFlight(w http.ResponseWriter, r *http.Request, f *flight, class int, mode string, req *runReq) {
	left := false // the client disconnected before the outcome
	defer func() {
		f.detach()
		// Counted after the detach, so once a cancellation shows in the
		// metrics, a private run's context is already cancelled.
		if left {
			s.metrics.recordDone(class, outcomeCanceled)
		}
	}()
	var wake chan struct{} // nil under ?stream=none: only the outcome matters
	if mode != "none" {
		var id int
		id, wake = f.subscribe()
		defer f.unsubscribe(id)
	}
	var write func(any)
	var flush func()
	for next := 0; ; {
		evs, completed := f.tail(next)
		if mode != "none" && len(evs) > 0 {
			if write == nil {
				write, flush = streamWriter(w, mode == "sse")
			}
			for _, ev := range evs {
				write(toWire(ev))
			}
			flush()
			next += len(evs)
		}
		if completed {
			break
		}
		select {
		case <-wake:
		case <-f.doneCh:
		case <-r.Context().Done():
			left = true
			return
		}
	}

	out, timing := f.outcome()
	switch {
	case errors.Is(out.err, ErrQueueFull), errors.Is(out.err, ErrStopped):
		s.rejectRequest(w, class, out.err)
		return
	case mode == "none" && out.err != nil:
		status := http.StatusInternalServerError
		switch {
		case r.Context().Err() != nil:
			status = 499 // client closed request; the write goes nowhere
		case s.runCtx.Err() != nil:
			status = http.StatusServiceUnavailable // force-cancelled by Shutdown
		}
		httpError(w, status, "run failed: %v", out.err)
	case mode == "none":
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resultRecord(f.scenName, out.res, timing))
	default:
		if write == nil {
			write, flush = streamWriter(w, mode == "sse")
		}
		if out.err != nil {
			write(wireError{Type: "error", Error: out.err.Error()})
		} else {
			write(resultRecord(f.scenName, out.res, timing))
		}
		flush()
	}
	s.metrics.recordDone(class, outcomeOf(r, out.err))
	if req != nil {
		s.metrics.recordRespond(time.Since(req.tRunEnd))
	}
}

// handleScenarios lists the scenario registry.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(scenario.Generators())
}

// handleMetrics renders the counter snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.metrics.Snapshot()
	format := r.URL.Query().Get("format")
	if format == "prometheus" || (format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		snap.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(snap)
}

// handleHealthz reports liveness: 503 once draining so load balancers
// stop routing here during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
