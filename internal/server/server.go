// Package server is the reconfiguration-as-a-service front-end over
// core.Engine: an HTTP service that accepts scenario-run requests from many
// concurrent clients, runs each admitted request on the engine as soon as
// admission lets it in, streams each run's observer events back over
// NDJSON or SSE, and records flat per-request phase timings plus aggregate
// engine counters behind a /metrics endpoint.
//
// The package splits along the request's path through the service:
//
//   - stream.go   — the wire schema (RunSpec in, event/result records out)
//     and the per-request event spool
//   - server.go   — the engine, admission, dispatch, graceful shutdown
//   - admission.go — the SLO-driven admission limit and priority classes
//   - cache.go, flight.go, peer.go — the result cache, singleflight and
//     cross-replica cache peering
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
	// QueueCap bounds the requests admitted but not yet answered; an
	// overflowing submission is rejected with 429 (default 64). It is the
	// admission controller's ceiling: with an SLO configured the live
	// limit adapts between min(8, QueueCap) and QueueCap.
	QueueCap int
	// Seed is the engine's base seed; per-request seeds override it
	// (default 1, the evaluation's golden seed).
	Seed int64
	// SLO is the target p95 for the interactive run phase. Non-zero
	// activates the AIMD admission controller: while the windowed p95
	// stays within the SLO the limit creeps up additively, past it the
	// limit backs off multiplicatively, shedding load as 429s before
	// queueing blows the tail. Zero keeps the static QueueCap behaviour.
	SLO time.Duration
	// CacheBytes is the result cache's budget (default 64 MiB; negative
	// disables caching — singleflight coalescing stays active).
	CacheBytes int64
	// BulkShare is the fraction of the admission limit the bulk class may
	// occupy (default 0.5). Interactive always has the full limit, so
	// sweeps degrade gracefully instead of starving interactive traffic.
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
// the built instance, its event sink (a private spool for ?cache=bypass
// runs, the shared flight for cacheable ones), the response rendezvous,
// and the phase timestamps.
type runReq struct {
	ctx   context.Context // cancelling aborts the run (flight or client ctx)
	scen  *scenario.Scenario
	cfg   core.Config
	seed  int64
	class int

	spool  *eventSpool     // live event stream, nil when not streaming
	flight *flight         // shared run, nil on the bypass path
	done   chan runOutcome // buffered(1): execute never blocks on it

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

// Server is the reconfiguration service: one DES engine, the
// content-addressed result cache with its singleflight table, the
// admission controller, and the metrics registry.
type Server struct {
	cfg     Config
	engine  *core.Engine
	cache   *resultCache
	flights *flightTable
	ctrl    *admission
	metrics *Metrics
	mux     *http.ServeMux

	runCtx context.Context // cancelled to force-abort in-flight runs
	force  context.CancelFunc

	peerClient *http.Client // peering probes; short-lived, bounded by PeerTimeout

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
		cfg:     cfg,
		engine:  core.NewEngine(rules.StandardLibrary(), core.WithSeed(cfg.Seed)),
		cache:   newResultCache(cfg.CacheBytes),
		flights: newFlightTable(),
		ctrl:    newAdmission(cfg.SLO, cfg.QueueCap, cfg.BulkShare),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
		peerClient: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     30 * time.Second,
		}},
	}
	s.metrics.cache = s.cache
	s.metrics.ctrl = s.ctrl
	s.runCtx, s.force = context.WithCancel(context.Background())
	s.routes()
	return s
}

// Handler returns the HTTP surface (see handlers.go for the routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (the bench kernels read it in-process).
func (s *Server) Metrics() *Metrics { return s.metrics }

// submit admits one request, counted against its class's live admission
// limit, and starts its run. On success the request WILL receive exactly
// one outcome on req.done; every error path here releases the admission
// slot.
func (s *Server) submit(req *runReq) error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return ErrStopped
	}
	limit := s.ctrl.limitFor(req.class)
	if n := s.pending[req.class].Add(1); n > limit {
		s.pending[req.class].Add(-1)
		return ErrQueueFull
	}
	s.inflight.Add(1)
	req.tEnqueue = time.Now()
	go s.execute(req)
	return nil
}

// execute runs one admitted request on the engine. The request
// gets its outcome delivered, its event sink closed or completed, and its
// admission slot released — also on force-shutdown, where RunBatch returns
// the context error.
func (s *Server) execute(r *runReq) {
	// Tee the instance's live events into the metrics summary and, when
	// anyone is listening, its spool or shared flight.
	var obs core.Observer = s.metrics
	switch {
	case r.flight != nil:
		obs = core.MultiObserver(r.flight, s.metrics)
	case r.spool != nil:
		obs = core.MultiObserver(r.spool, s.metrics)
	}
	r.tRunStart = time.Now()
	results, _ := s.engine.RunBatch(s.runCtx, []core.Instance{{
		Name:     r.scen.Name,
		Surface:  r.scen.Surface,
		Config:   r.cfg,
		Seed:     r.seed,
		Ctx:      r.ctx,
		Observer: obs,
	}})
	r.tRunEnd = time.Now()
	out := runOutcome{res: results[0].Result, err: results[0].Err}
	s.metrics.recordPhases(r)
	if out.err == nil && r.class == classInteractive {
		s.ctrl.observe(r.tRunEnd.Sub(r.tRunStart))
	}
	if r.flight != nil {
		s.finishFlight(r, out)
	} else if r.spool != nil {
		r.spool.close()
	}
	r.done <- out
	s.pending[r.class].Add(-1)
	s.inflight.Done()
}

// finishFlight completes a shared run: a successful deterministic run is
// compacted into the result cache FIRST, then the flight is unindexed
// (an identical request arriving in between attaches to the finished
// flight and replays it — never a duplicate engine run), and finally the
// flight wakes its tailing clients with the outcome.
func (s *Server) finishFlight(r *runReq, out runOutcome) {
	timing := r.timing()
	canceled := out.err != nil &&
		(errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) ||
			r.ctx.Err() != nil || s.runCtx.Err() != nil)
	if out.err == nil && !canceled {
		s.cache.put(&cacheEntry{
			key:      r.flight.key,
			scenName: r.scen.Name,
			res:      out.res,
			timing:   timing,
			events:   r.flight.compactEvents(),
		})
	}
	s.flights.remove(r.flight.key)
	r.flight.complete(out, timing)
}

// Shutdown drains the service gracefully: new submissions are refused with
// 503 and in-flight runs get until ctx's deadline to finish — their
// clients receive complete results. If the deadline expires first the
// remaining runs are force-cancelled; the engine rolls each surface back
// to an atomic motion boundary, so even an aborted request's surface is
// left connected and physically valid. Returns ctx.Err() when the force
// path was taken, nil on a clean drain.
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
