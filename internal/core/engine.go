package core

import (
	"context"
	"fmt"
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
	// World is the run's physical layer: surface, rule library, I and O,
	// motion constraints and the applied-motion hook.
	World   *exec.World
	Factory exec.CodeFactory
	Seed    int64
	Latency sim.LatencyModel
	Timeout time.Duration
}

// BackendFactory builds the Backend for one run. DES and Async are the two
// in-tree implementations; the end-to-end benchmark wraps DES to time it.
type BackendFactory func(p BackendParams) (Backend, error)

// DES builds the deterministic discrete-event backend (the VisibleSim
// substitute of §V-E): virtual time, seeded latency, reproducible runs.
func DES(p BackendParams) (Backend, error) {
	return sim.NewEngine(p.World, p.Factory, sim.Config{Seed: p.Seed, Latency: p.Latency})
}

// Async builds the goroutine-runtime backend: one goroutine per block,
// channels as the lateral ports of Fig. 8, real concurrency (Assumption 3's
// finite unordered delays).
func Async(p BackendParams) (Backend, error) {
	return asyncrt.NewEngine(p.World, p.Factory, p.Timeout)
}

// options is the resolved functional-option set of an Engine.
type options struct {
	backend  BackendFactory
	seed     int64
	latency  sim.LatencyModel
	timeout  time.Duration
	wrap     func(exec.CodeFactory) exec.CodeFactory
	observer Observer
}

// Option tunes an Engine at construction. Options hold engine-wide
// choices only; a run's own settings (the batch width K, the election
// budget) live in its Config and its band layout on its Surface.
type Option func(*options)

// WithBackend selects the execution backend (default DES).
func WithBackend(b BackendFactory) Option { return func(o *options) { o.backend = b } }

// WithSeed sets the DES's seed, which drives its latency draws (default 1,
// so the zero-option Engine is reproducible). The Async backend has no
// seeded randomness: its delays are real goroutine scheduling.
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
// even under the Async backend or concurrent Run calls.
func WithObserver(obs Observer) Option { return func(o *options) { o.observer = obs } }

// Engine is the unified session layer over the execution backends: one
// construction, any number of Run sessions. The Engine is immutable after
// NewEngine and safe for concurrent use; each session owns its surface,
// and event delivery to the engine's observer is serialised across
// concurrent sessions (obsMu), so the observer needs no locking of its own.
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
	if e == nil || e.lib == nil {
		return Result{}, fmt.Errorf("core: engine requires a rule library")
	}
	if surf == nil {
		return Result{}, fmt.Errorf("core: engine requires a surface")
	}
	// Build the connectivity cache at boot: the first constrained Validate
	// of every round then runs on warm articulation state instead of paying
	// the O(N) rebuild inside the measured run, and its component count
	// decides Assumption 1.
	conn0 := surf.ConnStats()
	comps := surf.WarmConnectivity()
	if err := validateInstance(surf, cfg, func() bool { return comps <= 1 }); err != nil {
		return Result{}, err
	}
	cfg = cfg.WithRunDefaults(surf)
	seed := e.opts.seed
	if seed == 0 {
		seed = 1
	}

	em := newEmitter(e.opts.observer, &e.obsMu)
	rec := &sessionRecorder{}
	var onApply func(lattice.ApplyResult)
	if em != nil {
		onApply = func(r lattice.ApplyResult) { em.emit(Event{Kind: EventMotionApplied, Apply: r}) }
	}
	world, err := exec.NewWorld(surf, e.lib, cfg.Input, cfg.Output, BuildConstraints(cfg, surf, e.lib), onApply)
	if err != nil {
		return Result{}, err
	}
	factory := newObservedFactory(cfg, rec, em)
	if e.opts.wrap != nil {
		factory = e.opts.wrap(factory)
	}

	backend, err := e.opts.backend(BackendParams{
		World:   world,
		Factory: factory,
		Seed:    seed,
		Latency: e.opts.latency,
		Timeout: e.opts.timeout,
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
		MessagesByType:  m.SentByType,
		WireBytes:       m.WireBytes,
		MessagesDropped: m.MessagesDropped,
		Counters:        cfg.Counters.Snapshot(),
		Blocks:          surf.NumBlocks(),
		PathLength:      cfg.Input.Manhattan(cfg.Output),
		VirtualTime:     sim.Time(m.VirtualTime),
		Events:          m.Events,
		Conn:            surf.ConnStats().Sub(conn0),
	}
	if driveErr != nil {
		return res, driveErr
	}
	if !fired {
		return res, fmt.Errorf("core: simulation quiesced without termination report (%d events)", m.Events)
	}
	return res, nil
}
