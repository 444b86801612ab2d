package core

import (
	"context"
	"fmt"
	gorun "runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/rules"
	asyncrt "repro/internal/runtime"
	"repro/internal/sim"
)

// Backend abstracts an execution engine behind the session API: boot the
// hosts, drive the run under a context, report the engine-level metrics.
// Both sim.Engine (the deterministic DES) and runtime.Engine (one goroutine
// per block) satisfy it; no package outside the backends' own should
// construct either directly — go through Engine.Run.
type Backend interface {
	// Boot prepares every block's host and schedules/posts its OnStart.
	Boot() error
	// Drive executes the run until termination, quiescence or context
	// cancellation. Cancellation must leave the surface physically
	// consistent: an Apply in flight completes (Surface.Apply is atomic),
	// no new one starts.
	Drive(ctx context.Context) error
	// Metrics reports the engine totals of the run so far.
	Metrics() exec.Metrics
}

// BackendParams is everything a BackendFactory needs to build one run's
// engine. The session layer fills it from the algorithm Config and the
// Engine options.
type BackendParams struct {
	Surface     *lattice.Surface
	Library     *rules.Library
	Factory     exec.CodeFactory
	Config      Config
	Seed        int64
	Latency     sim.LatencyModel
	Timeout     time.Duration
	Constraints lattice.Constraints
	OnApply     func(lattice.ApplyResult)
}

// BackendFactory builds the Backend for one run. DES and Async are the two
// in-tree implementations; experiments may inject instrumented ones.
type BackendFactory func(p BackendParams) (Backend, error)

// DES builds the deterministic discrete-event backend (the VisibleSim
// substitute of §V-E): virtual time, seeded latency, reproducible runs.
func DES(p BackendParams) (Backend, error) {
	return sim.NewEngine(p.Surface, p.Library, p.Factory, sim.Config{
		Input:       p.Config.Input,
		Output:      p.Config.Output,
		Seed:        p.Seed,
		Latency:     p.Latency,
		Constraints: p.Constraints,
		OnApply:     p.OnApply,
	})
}

// Async builds the goroutine-runtime backend: one goroutine per block,
// channels as the lateral ports of Fig. 8, real concurrency (Assumption 3's
// finite unordered delays).
func Async(p BackendParams) (Backend, error) {
	return asyncrt.NewEngine(p.Surface, p.Library, p.Factory, asyncrt.Config{
		Input:       p.Config.Input,
		Output:      p.Config.Output,
		Seed:        p.Seed,
		Constraints: p.Constraints,
		OnApply:     p.OnApply,
		Timeout:     p.Timeout,
	})
}

// options is the resolved functional-option set of an Engine.
type options struct {
	backend  BackendFactory
	seed     int64
	latency  sim.LatencyModel
	timeout  time.Duration
	wrap     func(exec.CodeFactory) exec.CodeFactory
	observer Observer
	workers  int
}

// Option tunes an Engine at construction. Options hold engine-wide
// choices only; a run's own settings (the batch width K, the election
// budget) live in its Config and its band layout on its Surface.
type Option func(*options)

// WithBackend selects the execution backend (default DES).
func WithBackend(b BackendFactory) Option { return func(o *options) { o.backend = b } }

// WithSeed sets the seed driving all randomness of a run (default 1, so the
// zero-option Engine is reproducible).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithLatency sets the DES link-latency model (default: uniform 500..1500
// ticks, the asynchronous regime of Assumption 3). The Async backend's
// latency is real goroutine scheduling and ignores this.
func WithLatency(m sim.LatencyModel) Option { return func(o *options) { o.latency = m } }

// WithTimeout sets the Async backend's wall-clock safety bound (default
// 60s). DES runs bound themselves by rounds; use a context deadline for
// wall-clock control there.
func WithTimeout(d time.Duration) Option { return func(o *options) { o.timeout = d } }

// WithFaultWrap decorates the BlockCode factory before the backend boots;
// the fault-injection layer (internal/faults) hooks in here.
func WithFaultWrap(w func(exec.CodeFactory) exec.CodeFactory) Option {
	return func(o *options) { o.wrap = w }
}

// WithObserver attaches the structured event stream consumer: round starts,
// election outcomes, applied motions, termination, message totals. The
// session serialises delivery, so the observer needs no internal locking
// even under the Async backend or RunBatch.
func WithObserver(obs Observer) Option { return func(o *options) { o.observer = obs } }

// WithWorkers sets the RunBatch worker-pool size (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// Engine is the unified session layer over the execution backends: one
// construction, any number of Run/RunBatch sessions. The Engine is
// immutable after NewEngine and safe for concurrent use; each session owns
// its surface, and event delivery to the engine's observer is serialised
// across sessions (obsMu), so the observer needs no locking of its own.
type Engine struct {
	lib   *rules.Library
	opts  options
	obsMu sync.Mutex // serialises all deliveries to opts.observer
}

// NewEngine builds a session engine over the given rule library. With no
// options it runs the DES backend with the documented defaults (seed 1,
// uniform 500..1500 latency).
func NewEngine(lib *rules.Library, opts ...Option) *Engine {
	e := &Engine{lib: lib}
	e.opts.backend = DES
	e.opts.seed = 1
	e.opts.latency = sim.UniformLatency{Min: 500, Max: 1500}
	e.opts.timeout = 60 * time.Second
	for _, o := range opts {
		o(&e.opts)
	}
	if e.opts.backend == nil {
		e.opts.backend = DES
	}
	return e
}

// sessionRecorder captures the Root's Finish call and forwards it to the
// backend when the backend needs it to stop driving (runtime.Engine
// implements exec.Termination for exactly this).
type sessionRecorder struct {
	fired   bool
	success bool
	rounds  int
	mu      sync.Mutex
	sink    exec.Termination
}

// Finish implements exec.Termination.
func (r *sessionRecorder) Finish(success bool, rounds int) {
	r.mu.Lock()
	r.fired, r.success, r.rounds = true, success, rounds
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink.Finish(success, rounds)
	}
}

// snapshot returns the recorded verdict.
func (r *sessionRecorder) snapshot() (fired, success bool, rounds int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired, r.success, r.rounds
}

// Run executes Algorithm 1 on surf until termination, the election budget
// (Config.MaxRounds), or context cancellation/deadline. The surface is
// mutated in place (final configuration); on cancellation it is left
// connected and fully rolled back — Surface.Apply is atomic and the
// backends only stop between events. The returned Result carries the full
// metric set of the run, including the backend's virtual-time/event totals.
func (e *Engine) Run(ctx context.Context, surf *lattice.Surface, cfg Config) (Result, error) {
	return e.runInstance(ctx, surf, cfg, 0, newEmitter(e.opts.observer, -1, &e.obsMu))
}

// runInstance is the shared session core behind Run and RunBatch.
func (e *Engine) runInstance(ctx context.Context, surf *lattice.Surface, cfg Config,
	seedOverride int64, em *emitter) (Result, error) {
	if e == nil || e.lib == nil {
		return Result{}, fmt.Errorf("core: engine requires a rule library")
	}
	if surf == nil {
		return Result{}, fmt.Errorf("core: engine requires a surface")
	}
	if err := ValidateInstance(surf, cfg); err != nil {
		return Result{}, err
	}
	cfg = cfg.WithRunDefaults(surf)

	seed := seedOverride
	if seed == 0 {
		seed = e.opts.seed
	}
	if seed == 0 {
		seed = 1
	}

	rec := &sessionRecorder{}
	constraints := BuildConstraints(cfg, surf, e.lib)
	// Build the connectivity cache at boot: the first constrained Validate
	// of every round then runs on warm articulation state instead of paying
	// the O(N) rebuild inside the measured run.
	surf.WarmConnectivity()
	factory := newObservedFactory(cfg, rec, em)
	if e.opts.wrap != nil {
		factory = e.opts.wrap(factory)
	}

	var onApply func(lattice.ApplyResult)
	if em != nil {
		onApply = func(r lattice.ApplyResult) { em.emit(Event{Kind: EventMotionApplied, Apply: r}) }
	}

	backend, err := e.opts.backend(BackendParams{
		Surface:     surf,
		Library:     e.lib,
		Factory:     factory,
		Config:      cfg,
		Seed:        seed,
		Latency:     e.opts.latency,
		Timeout:     e.opts.timeout,
		Constraints: constraints,
		OnApply:     onApply,
	})
	if err != nil {
		return Result{}, err
	}
	// The Root's Finish must reach backends that block on it (the goroutine
	// runtime stops driving when its Termination fires). Wiring the sink
	// before Boot keeps the recorder race-free: no block code runs yet.
	if t, ok := backend.(exec.Termination); ok {
		rec.sink = t
	}
	if err := backend.Boot(); err != nil {
		return Result{}, err
	}
	driveErr := backend.Drive(ctx)

	m := backend.Metrics()
	em.emit(Event{Kind: EventMessageStats,
		Sent: m.MessagesSent, Delivered: m.MessagesDelivered,
		Dropped: m.MessagesDropped, Events: m.Events, VirtualTime: m.VirtualTime,
		CandsDropped: uint64(cfg.Counters.CandidatesDropped.Load())})

	fired, success, rounds := rec.snapshot()
	res := Result{
		Success:         fired && success,
		PathBuilt:       PathBuilt(surf, cfg.Input, cfg.Output),
		Rounds:          rounds,
		Hops:            surf.Hops(),
		Applications:    surf.Applications(),
		MessagesSent:    m.MessagesSent,
		MessagesDropped: m.MessagesDropped,
		Counters:        cfg.Counters.Snapshot(),
		Blocks:          surf.NumBlocks(),
		PathLength:      cfg.Input.Manhattan(cfg.Output),
		VirtualTime:     sim.Time(m.VirtualTime),
		Events:          m.Events,
	}
	if driveErr != nil {
		return res, driveErr
	}
	if !fired {
		return res, fmt.Errorf("core: simulation quiesced without termination report (%d events)", m.Events)
	}
	return res, nil
}

// Instance is one scenario of a batch: a surface plus its algorithm config.
type Instance struct {
	// Name labels the instance in results (optional).
	Name string
	// Surface is the instance's own surface; instances must not share one.
	Surface *lattice.Surface
	// Config is the algorithm configuration (I, O, knobs).
	Config Config
	// Seed overrides the engine seed for this instance (0 = engine seed),
	// so a sweep can vary seeds without rebuilding engines.
	Seed int64
}

// BatchResult is one instance's outcome within a RunBatch.
type BatchResult struct {
	// Instance is the index into the submitted slice.
	Instance int
	// Name echoes the instance label.
	Name string
	// Result is the run's metric set (partially filled when Err is set).
	Result Result
	// Err is the instance's failure, nil on success. An instance never
	// started because the context was cancelled carries the context error.
	Err error
}

// RunBatch runs independent instances across a worker pool (WithWorkers,
// default GOMAXPROCS) and returns one entry per instance, in input order.
// Each worker reuses its scratch across the instances it runs — most
// importantly the observer event buffer: events of one instance are
// buffered and flushed to the engine observer contiguously with
// Event.Instance stamped, so batch consumers never see interleaved streams.
// Cancelling the context stops handing out new instances and cancels the
// in-flight runs; RunBatch then returns the context error alongside the
// per-instance outcomes.
func (e *Engine) RunBatch(ctx context.Context, insts []Instance) ([]BatchResult, error) {
	out := make([]BatchResult, len(insts))
	if len(insts) == 0 {
		return out, ctx.Err()
	}
	workers := e.opts.workers
	if workers <= 0 {
		workers = gorun.GOMAXPROCS(0)
	}
	if workers > len(insts) {
		workers = len(insts)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch batchScratch
			for i := range idx {
				ins := insts[i]
				// Buffer engine-observer events into the worker's private
				// scratch (own lock — only this instance's backend goroutines
				// contend), then flush under the engine-wide observer lock so
				// streams of different instances never interleave.
				var em *emitter
				if e.opts.observer != nil {
					em = newEmitter(scratch.observer(), i, nil)
				}
				res, err := e.runInstance(ctx, ins.Surface, ins.Config, ins.Seed, em)
				out[i] = BatchResult{Instance: i, Name: ins.Name, Result: res, Err: err}
				if e.opts.observer != nil {
					e.obsMu.Lock()
					scratch.flushTo(e.opts.observer)
					e.obsMu.Unlock()
				}
			}
		}()
	}

	assigned := make([]bool, len(insts))
feed:
	for i := range insts {
		select {
		case idx <- i:
			assigned[i] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	for i := range insts {
		if !assigned[i] {
			out[i] = BatchResult{Instance: i, Name: insts[i].Name, Err: ctx.Err()}
		}
	}
	return out, ctx.Err()
}

// batchScratch is the per-worker reusable state of RunBatch: the observer
// event buffer grows to the largest instance once and is reused for every
// subsequent instance the worker picks up.
type batchScratch struct {
	buf []Event
}

// observer returns a buffering Observer writing into the scratch.
func (s *batchScratch) observer() Observer {
	s.buf = s.buf[:0]
	return ObserverFunc(func(ev Event) { s.buf = append(s.buf, ev) })
}

// flushTo delivers the buffered events and resets the buffer.
func (s *batchScratch) flushTo(obs Observer) {
	for _, ev := range s.buf {
		obs.OnEvent(ev)
	}
	s.buf = s.buf[:0]
}
