package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// Config parameterises a simulation run.
type Config struct {
	// Input and Output are the I and O cells of the trajectory problem.
	Input, Output geom.Vec
	// Seed drives every random source of the run (scheduler, per-block
	// rngs, latency jitter); equal seeds give identical runs.
	Seed int64
	// Latency is the link latency model; nil defaults to FixedLatency(1000).
	Latency LatencyModel
	// Constraints are the physics-level checks applied to every motion
	// (connectivity, frozen blocks, blocking veto); supplied by the
	// algorithm layer.
	Constraints lattice.Constraints
	// OnApply, when non-nil, observes every executed rule application (the
	// trace recorder and the statistics harness hook in here).
	OnApply func(lattice.ApplyResult)
}

// Engine hosts BlockCodes on a surface and simulates their execution.
type Engine struct {
	sched *Scheduler
	surf  *lattice.Surface
	lib   *rules.Library
	cfg   Config

	hosts   map[lattice.BlockID]*host
	radius  int
	sent    uint64 // Send calls accepted by ports
	deliver uint64 // messages handed to OnMessage
	dropped uint64 // messages whose receiver has no host when they land

	// Per-motion notification scratch, reused across notifyAfterMotion
	// calls so the hot path performs no map or slice allocations. seen is
	// an epoch-stamped dense array indexed by BlockID (surface ids are
	// small and dense); a block is marked in the current motion iff
	// seen[id] == epoch.
	seen       []uint32
	epoch      uint32
	changedBuf []geom.Vec
	idBuf      []lattice.BlockID

	// pool is the typed event arena: fired engEvents return here, so the
	// deliver/moved/neighborhood hot paths schedule without allocating once
	// the pool has warmed to the peak queue depth.
	pool []*engEvent
}

// evKind discriminates the engine's typed scheduler events.
type evKind uint8

const (
	evStart evKind = iota
	evDeliver
	evMoved
	evNeighborhood
)

// engEvent is one pooled scheduler event of the engine.
type engEvent struct {
	eng      *Engine
	kind     evKind
	h        *host // start / moved / neighborhood target
	from, to lattice.BlockID
	m        msg.Message
	vFrom    geom.Vec
	vTo      geom.Vec
}

// Fire implements Event: dispatch, then return to the arena.
func (ev *engEvent) Fire() {
	e := ev.eng
	switch ev.kind {
	case evStart:
		ev.h.code.OnStart(ev.h)
	case evDeliver:
		e.deliverTo(ev.from, ev.to, ev.m)
	case evMoved:
		ev.h.code.OnMoved(ev.h, ev.vFrom, ev.vTo)
	case evNeighborhood:
		ev.h.code.OnNeighborhoodChanged(ev.h)
	}
	// Clear the target and message, so a pooled event keeps neither a host
	// nor a candidate list reachable.
	ev.h = nil
	ev.m = msg.Message{}
	e.pool = append(e.pool, ev)
}

// newEvent takes an event from the arena (or grows it).
func (e *Engine) newEvent(kind evKind) *engEvent {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool = e.pool[:n-1]
		ev.kind = kind
		return ev
	}
	return &engEvent{eng: e, kind: kind}
}

// host adapts one block to exec.Env.
type host struct {
	eng  *Engine
	id   lattice.BlockID
	code exec.BlockCode
	rng  *rand.Rand
}

// NewEngine builds an engine over the given surface and rule library. The
// surface must already hold the initial block configuration.
func NewEngine(surf *lattice.Surface, lib *rules.Library, factory exec.CodeFactory, cfg Config) (*Engine, error) {
	if surf == nil || lib == nil || factory == nil {
		return nil, fmt.Errorf("sim: surface, library and factory are required")
	}
	if cfg.Latency == nil {
		cfg.Latency = FixedLatency(1000)
	}
	e := &Engine{
		sched:  NewScheduler(cfg.Seed),
		surf:   surf,
		lib:    lib,
		cfg:    cfg,
		hosts:  make(map[lattice.BlockID]*host, surf.NumBlocks()),
		radius: 2 * lib.MaxRadius(),
	}
	ids := surf.Blocks()
	if len(ids) > 0 {
		// Pre-size the notification scratch for every block already placed
		// (ids ascend, so the last is the max).
		e.seen = make([]uint32, int(ids[len(ids)-1])+1)
	}
	for _, id := range ids {
		e.hosts[id] = &host{
			eng:  e,
			id:   id,
			code: factory(id),
			rng:  rand.New(rand.NewSource(cfg.Seed ^ int64(id)*0x7f4a7c15)),
		}
	}
	return e, nil
}

// Boot schedules every block's OnStart at time zero, in ascending id order.
// It implements the Boot half of the core.Backend seam (the error return is
// for symmetry with backends whose boot can fail).
func (e *Engine) Boot() error {
	ids := e.surf.Blocks()
	for _, id := range ids {
		ev := e.newEvent(evStart)
		ev.h = e.hosts[id]
		e.sched.Schedule(0, ev)
	}
	return nil
}

// driveChunk is how many events Drive executes between context checks: large
// enough that the ctx.Err() poll vanishes next to the event work, small
// enough that cancellation lands promptly.
const driveChunk = 4096

// Drive runs the simulation until quiescence or context cancellation (the
// algorithm layer's round cap guarantees termination). Cancellation is
// checked between events only — an Apply in flight always completes — so
// the surface is left in a physically consistent (connected, fully
// rolled-back) state.
func (e *Engine) Drive(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.sched.Run(driveChunk) < driveChunk {
			return nil // quiesced
		}
	}
}

// Metrics implements the measurement half of the core.Backend seam.
func (e *Engine) Metrics() exec.Metrics {
	return exec.Metrics{
		MessagesSent:      e.sent,
		MessagesDelivered: e.deliver,
		MessagesDropped:   e.dropped,
		Events:            e.sched.Processed(),
		VirtualTime:       int64(e.sched.Now()),
	}
}

// --- exec.Env implementation -----------------------------------------------

func (h *host) ID() lattice.BlockID { return h.id }

func (h *host) Position() geom.Vec {
	v, ok := h.eng.surf.PositionOf(h.id)
	if !ok {
		panic(fmt.Sprintf("sim: block %d vanished from the surface", h.id))
	}
	return v
}

func (h *host) Input() geom.Vec  { return h.eng.cfg.Input }
func (h *host) Output() geom.Vec { return h.eng.cfg.Output }

func (h *host) Neighbors() [geom.NumDirs]lattice.BlockID {
	nt, err := h.eng.surf.Neighbors(h.id)
	if err != nil {
		panic(err)
	}
	return nt
}

func (h *host) Send(to lattice.BlockID, m msg.Message) error {
	e := h.eng
	if err := portBetween(e.surf, h.id, to); err != nil {
		return err
	}
	e.sent++
	ev := e.newEvent(evDeliver)
	ev.from, ev.to, ev.m = h.id, to, m
	e.sched.Schedule(e.cfg.Latency.Delay(e.sched.Rand()), ev)
	return nil
}

// deliverTo lands a message. Adjacency was validated at Send time: the
// port transfers the bytes into the receiver while the blocks are in
// contact, and the configured latency models the receiver-side queueing and
// processing delay. A message therefore survives the sender moving away
// after the send (e.g. the elected block's SelectAck racing its own hop).
// Each message is its own event and is handed to OnMessage as it lands.
func (e *Engine) deliverTo(from, to lattice.BlockID, m msg.Message) {
	h, ok := e.hosts[to]
	if !ok {
		e.dropped++
		return
	}
	e.deliver++
	h.code.OnMessage(h, from, m)
}

// portBetween returns an error unless the blocks are in lateral contact.
func portBetween(surf *lattice.Surface, from, to lattice.BlockID) error {
	pf, ok := surf.PositionOf(from)
	if !ok {
		return fmt.Errorf("sim: sender %d not on surface", from)
	}
	pt, ok := surf.PositionOf(to)
	if !ok {
		return fmt.Errorf("sim: receiver %d not on surface", to)
	}
	if _, ok := geom.DirOf(pt, pf); !ok {
		return fmt.Errorf("sim: blocks %d and %d are not adjacent", from, to)
	}
	return nil
}

func (h *host) Sense(v geom.Vec) bool {
	e := h.eng
	p, ok := e.surf.PositionOf(h.id)
	if !ok {
		panic(fmt.Sprintf("sim: block %d vanished from the surface", h.id))
	}
	if v.Chebyshev(p) > e.radius {
		panic(fmt.Sprintf("sim: block %d sensing %v beyond radius %d from %v",
			h.id, v, e.radius, p))
	}
	return e.surf.Occupied(v)
}

func (h *host) SensingRadius() int { return h.eng.radius }

func (h *host) CutVertex() bool {
	return h.eng.surf.IsArticulation(h.Position())
}

func (h *host) ValidateMoveSet(moves []lattice.PlannedMove) int {
	return h.eng.surf.ValidateMoveSet(moves)
}

func (h *host) Library() *rules.Library { return h.eng.lib }

func (h *host) Move(app rules.Application) error {
	e := h.eng
	pos := h.Position()
	if _, ok := app.MoveOf(pos); !ok {
		return fmt.Errorf("sim: block %d at %v is not a mover of %s", h.id, pos, app)
	}
	res, err := e.surf.Apply(app, e.cfg.Constraints)
	if err != nil {
		return err
	}
	if e.cfg.OnApply != nil {
		e.cfg.OnApply(res)
	}
	e.notifyAfterMotion(res)
	return nil
}

// notifyAfterMotion schedules OnMoved for every displaced block and
// OnNeighborhoodChanged for every block whose sensing window saw a cell
// change, preserving deterministic order. The block-set bookkeeping runs on
// the engine's reusable scratch buffers (an epoch-stamped dense id array
// instead of a per-motion map) and the notifications on pooled typed events,
// so the whole path performs no transient allocations.
func (e *Engine) notifyAfterMotion(res lattice.ApplyResult) {
	e.nextEpoch()
	for _, id := range res.Moved {
		e.mark(id) // movers are excluded from the observer scan
	}
	anchor := res.App.Anchor
	e.changedBuf = e.changedBuf[:0]
	for _, m := range res.App.Rule.Moves {
		from, to := anchor.Add(m.From), anchor.Add(m.To)
		e.changedBuf = append(e.changedBuf, from, to)
		// After execution each destination holds exactly the block that
		// moved onto it.
		id, ok := e.surf.BlockAt(to)
		if !ok {
			continue
		}
		ev := e.newEvent(evMoved)
		ev.h, ev.vFrom, ev.vTo = e.hosts[id], from, to
		e.sched.Schedule(0, ev)
	}
	for _, id := range e.affectedBlocks(e.changedBuf) {
		ev := e.newEvent(evNeighborhood)
		ev.h = e.hosts[id]
		e.sched.Schedule(0, ev)
	}
}

// affectedBlocks lists blocks whose sensing window covers one of the
// changed cells and that are not already marked in the current epoch
// (the movers), in ascending id order. The returned slice is the engine's
// scratch buffer, valid until the next call.
func (e *Engine) affectedBlocks(changed []geom.Vec) []lattice.BlockID {
	e.idBuf = e.idBuf[:0]
	for _, c := range changed {
		for dy := -e.radius; dy <= e.radius; dy++ {
			for dx := -e.radius; dx <= e.radius; dx++ {
				if id, ok := e.surf.BlockAt(c.Add(geom.V(dx, dy))); ok && e.mark(id) {
					e.idBuf = append(e.idBuf, id)
				}
			}
		}
	}
	slices.Sort(e.idBuf)
	return e.idBuf
}

// nextEpoch starts a new scratch generation; on wrap-around the stamp array
// is zeroed so stale marks can never alias the new epoch.
func (e *Engine) nextEpoch() {
	e.epoch++
	if e.epoch == 0 {
		clear(e.seen)
		e.epoch = 1
	}
}

// mark stamps id in the current epoch; it reports whether the id was not
// yet marked (i.e. this call claimed it). The stamp array is pre-sized in
// NewEngine; growth (ids placed after construction) doubles so repeated
// ascending ids stay amortised O(1).
func (e *Engine) mark(id lattice.BlockID) bool {
	if int(id) >= len(e.seen) {
		n := 2 * len(e.seen)
		if n <= int(id) {
			n = int(id) + 1
		}
		grown := make([]uint32, n)
		copy(grown, e.seen)
		e.seen = grown
	}
	if e.seen[id] == e.epoch {
		return false
	}
	e.seen[id] = e.epoch
	return true
}

func (h *host) Rand() *rand.Rand { return h.rng }

var _ exec.Env = (*host)(nil)
