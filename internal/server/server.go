// Package server is the reconfiguration-as-a-service front-end over
// core.Engine: an HTTP service that accepts scenario-run requests from many
// concurrent clients, runs each admitted request as one Engine.Run as soon
// as admission lets it in, streams each run's observer events back over
// NDJSON or SSE, and records flat per-request phase timings plus aggregate
// engine counters behind a /metrics endpoint.
//
// The package splits along the request's path through the service:
//
//   - stream.go   — the wire schema (RunSpec in, event/result records out)
//   - server.go   — admission, dispatch (one Engine.Run per admitted
//     request), graceful shutdown
//   - flight.go   — the flight: one engine run, its event history and the
//     clients attached to it; every engine run is one
//   - cache.go, peer.go — the result cache and cross-replica cache peering
//   - handlers.go — the HTTP surface
//   - metrics.go  — per-phase latency and engine-counter aggregation
//   - loadgen.go  — the closed-loop load generator behind cmd/sbload and
//     the gateway bench kernels
package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/scenario"
)

var (
	// ErrQueueFull reports an admission rejection: the request's class is
	// at its admission limit. The HTTP layer maps it to 429.
	ErrQueueFull = errors.New("server: request queue full")
	// ErrStopped reports a submission after Shutdown began. The HTTP layer
	// maps it to 503 (the server is draining).
	ErrStopped = errors.New("server: shutting down")
)

// Config tunes the service. The zero value is usable: every field derives
// the documented default.
type Config struct {
	// Deprecated: BatchSize is ignored; every admitted request runs on its
	// own. It is kept only because e2ebench/serve.go still sets it.
	BatchSize int
	// Deprecated: BatchWait is ignored; every admitted request runs on its
	// own. It is kept only because e2ebench/serve.go still sets it.
	BatchWait time.Duration
	// QueueCap bounds the requests of each class admitted but not yet
	// answered: interactive requests may hold QueueCap slots, bulk requests
	// max(1, BulkShare x QueueCap). A submission over its class's limit is
	// rejected with 429 (default 64).
	QueueCap int
	// Seed is the engine's base seed; per-request seeds override it
	// (default 1, the evaluation's golden seed).
	Seed int64
	// CacheBytes is the result cache's budget (default 64 MiB; negative
	// disables caching — singleflight coalescing stays active).
	CacheBytes int64
	// BulkShare is the fraction of QueueCap the bulk class may occupy
	// (default 0.5). Interactive always has the full QueueCap, so sweeps
	// degrade gracefully instead of starving interactive traffic.
	BulkShare float64
	// PeerProbe enables cross-replica cache peering: on an engine-path
	// miss, when the request carries an X-Peer-Probe header (set by the
	// sbgate affinity router), the replica probes that peer's /v1/peek
	// before paying for a run. Off by default — a lone replica has no
	// peers and shouldn't honour probe headers from arbitrary clients: a
	// client naming a server it controls could plant a forged recording
	// that every later client is served as a cache hit.
	PeerProbe bool
	// PeerTimeout bounds one peer probe (default 750ms).
	PeerTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.BulkShare <= 0 || c.BulkShare > 1 {
		c.BulkShare = 0.5
	}
	return c
}

// runReq is one admitted engine request on its way through the service:
// the built instance, the flight that carries its run (the flight's context
// cancels it, the flight records its events and outcome), and the phase
// timestamps.
type runReq struct {
	scen   *scenario.Scenario
	cfg    core.Config
	seed   int64
	class  int
	flight *flight

	tEnqueue, tRunStart, tRunEnd time.Time
}

// runOutcome is the engine's answer to one request.
type runOutcome struct {
	res core.Result
	err error
}

// timing renders the request's completed phases for the result record.
func (r *runReq) timing() wireTiming {
	return wireTiming{
		EnqueueNS: int64(r.tRunStart.Sub(r.tEnqueue)),
		RunNS:     int64(r.tRunEnd.Sub(r.tRunStart)),
	}
}

// Server is the reconfiguration service: the rule library every run's DES
// engine is built over, the content-addressed result cache with its
// singleflight table, the per-class admission limits, and the metrics
// registry.
type Server struct {
	cfg     Config
	lib     *rules.Library
	cache   *resultCache
	flights *flightTable
	limits  [numClasses]int64 // pending requests each class may hold
	metrics *Metrics
	mux     *http.ServeMux

	runCtx context.Context // every flight's parent; cancelled to force-abort in-flight runs
	force  context.CancelFunc

	peerClient *http.Client // peering probes; short-lived, bounded by PeerTimeout

	// observe, when non-nil, sees each run's events after the flight and
	// the metrics have. It is nil in production; tests use it to hold a run
	// at an event.
	observe core.Observer

	pending [numClasses]atomic.Int64 // admitted, outcome not yet delivered
	// drainMu orders admissions against Shutdown: submit checks draining
	// and adds to inflight under it, Shutdown sets draining under it, so
	// no request is admitted once Shutdown has started waiting on inflight.
	drainMu  sync.Mutex
	inflight sync.WaitGroup // one per admitted request; Wait = drained
	draining atomic.Bool
}

// New builds a server over the standard rule library.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		lib:   rules.StandardLibrary(),
		cache: newResultCache(cfg.CacheBytes),
		limits: [numClasses]int64{
			classInteractive: int64(cfg.QueueCap),
			classBulk:        max(1, int64(cfg.BulkShare*float64(cfg.QueueCap))),
		},
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
		peerClient: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     30 * time.Second,
		}},
	}
	s.metrics.cache = s.cache
	s.metrics.admission = AdmissionSnapshot{Limit: s.limits[classInteractive], BulkLimit: s.limits[classBulk]}
	s.runCtx, s.force = context.WithCancel(context.Background())
	s.flights = newFlightTable(s.runCtx)
	s.routes()
	return s
}

// Handler returns the HTTP surface (see handlers.go for the routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (the bench kernels read it in-process).
func (s *Server) Metrics() *Metrics { return s.metrics }

// submit admits one request, counted against its class's admission limit,
// and starts its run. On success the request's flight WILL be
// completed with exactly one outcome; every error path here releases the
// admission slot.
func (s *Server) submit(req *runReq) error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return ErrStopped
	}
	if n := s.pending[req.class].Add(1); n > s.limits[req.class] {
		s.pending[req.class].Add(-1)
		return ErrQueueFull
	}
	s.inflight.Add(1)
	req.tEnqueue = time.Now()
	go s.execute(req)
	return nil
}

// execute runs one admitted request with Engine.Run under its flight's
// context, seeded with the spec's seed or, when the spec has none, the
// server's base seed. The flight gets the live events (teed into the
// metrics summary) and the outcome, and the admission slot is released —
// also on force-shutdown or when the last client detaches, where Run
// returns the context error.
func (s *Server) execute(r *runReq) {
	seed := r.seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	r.tRunStart = time.Now()
	res, err := core.NewEngine(s.lib, core.WithSeed(seed),
		core.WithObserver(core.MultiObserver(r.flight, s.metrics, s.observe))).
		Run(r.flight.ctx, r.scen.Surface, r.cfg)
	r.tRunEnd = time.Now()
	s.metrics.recordPhases(r)
	s.finishFlight(r.flight, runOutcome{res: res, err: err}, r.timing())
	s.pending[r.class].Add(-1)
	s.inflight.Done()
}

// finishFlight completes a flight. For a shared flight a successful run is
// compacted into the result cache FIRST, then the flight is unindexed (an
// identical request arriving in between attaches to the finished flight
// and replays it — never a duplicate engine run). A private flight fills
// no cache entry, and remove leaves the table alone for it: the entry
// under its key, if any, is another client's shared flight. Finally the
// flight wakes its tailing clients with the outcome.
func (s *Server) finishFlight(f *flight, out runOutcome, timing wireTiming) {
	if !f.private && out.err == nil {
		s.cache.put(&cacheEntry{
			key:      f.key,
			scenName: f.scenName,
			res:      out.res,
			timing:   timing,
			events:   f.compactEvents(),
		})
	}
	s.flights.remove(f)
	f.complete(out, timing)
}

// Shutdown drains the service gracefully: new submissions are refused with
// 503 and in-flight runs get until ctx's deadline to finish — their
// clients receive complete results. If the deadline expires first the
// remaining runs are force-cancelled through the run context every
// flight's context derives from; the engine rolls each surface back to an
// atomic motion boundary, so even an aborted request's surface is left
// connected and physically valid. A force-cancelled run's client gets 503
// under ?stream=none and an error record on a stream. Returns ctx.Err()
// when the force path was taken, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.force()
		<-drained
		return ctx.Err()
	}
}

// Close shuts down immediately (force-cancel, no grace).
func (s *Server) Close() {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(cancelled)
}

// Draining reports whether Shutdown has begun (healthz turns 503).
func (s *Server) Draining() bool { return s.draining.Load() }
