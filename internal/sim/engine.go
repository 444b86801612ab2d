package sim

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// Config parameterises a simulation run.
type Config struct {
	// Seed drives the scheduler's random source, from which every link
	// latency is drawn; equal seeds give identical runs.
	Seed int64
	// Latency is the link latency model; nil defaults to FixedLatency(1000).
	Latency LatencyModel
}

// Engine hosts BlockCodes on a World and simulates their execution.
type Engine struct {
	sched   *Scheduler
	world   *exec.World
	latency LatencyModel

	// hosts is indexed by BlockID (surface ids are small and dense); nil
	// marks an id with no host.
	hosts   []*host
	sent    uint64 // Send calls accepted by ports
	deliver uint64 // messages handed to OnMessage
	dropped uint64 // messages whose receiver has no host when they land
	// byType and wire split the accepted sends by type and sum their wire
	// sizes (see exec.Metrics).
	byType [msg.NumTypes + 1]uint64
	wire   uint64

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
		e.deliverTo(ev.from, ev.to, &ev.m)
	case evMoved:
		ev.h.code.OnMoved(ev.h, ev.vFrom, ev.vTo)
	case evNeighborhood:
		ev.h.code.OnNeighborhoodChanged(ev.h)
	}
	// Clear the target and the message's candidate list, the one field that
	// keeps memory reachable, so a pooled event holds neither. Send writes
	// the whole message again.
	ev.h = nil
	ev.m.Cands = nil
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
}

// NewEngine builds an engine that hosts one BlockCode per block of world.
func NewEngine(world *exec.World, factory exec.CodeFactory, cfg Config) (*Engine, error) {
	if world == nil || factory == nil {
		return nil, fmt.Errorf("sim: world and factory are required")
	}
	if cfg.Latency == nil {
		cfg.Latency = FixedLatency(1000)
	}
	e := &Engine{
		sched:   NewScheduler(cfg.Seed),
		world:   world,
		latency: cfg.Latency,
	}
	for _, id := range world.Blocks() {
		e.hosts = append(e.hosts, make([]*host, int(id)+1-len(e.hosts))...) // ids ascend
		e.hosts[id] = &host{eng: e, id: id, code: factory(id)}
	}
	return e, nil
}

// Boot schedules every block's OnStart at time zero, in ascending id order.
// It implements the Boot half of the core.Backend seam (the error return is
// for symmetry with backends whose boot can fail).
func (e *Engine) Boot() error {
	for _, h := range e.hosts {
		if h != nil {
			ev := e.newEvent(evStart)
			ev.h = h
			e.sched.Schedule(0, ev)
		}
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
		SentByType:        e.byType,
		WireBytes:         e.wire,
		MessagesDelivered: e.deliver,
		MessagesDropped:   e.dropped,
		Events:            e.sched.Processed(),
		VirtualTime:       int64(e.sched.Now()),
	}
}

// --- exec.Env implementation -----------------------------------------------

func (h *host) ID() lattice.BlockID                      { return h.id }
func (h *host) Position() geom.Vec                       { return h.eng.world.Position(h.id) }
func (h *host) Input() geom.Vec                          { return h.eng.world.Input() }
func (h *host) Output() geom.Vec                         { return h.eng.world.Output() }
func (h *host) Neighbors() [geom.NumDirs]lattice.BlockID { return h.eng.world.Neighbors(h.id) }
func (h *host) Library() *rules.Library                  { return h.eng.world.Library() }

func (h *host) Send(to lattice.BlockID, m msg.Message) error {
	e := h.eng
	if err := e.world.Port(h.id, to); err != nil {
		return err
	}
	e.sent++
	e.byType[m.Type.Slot()]++
	e.wire += uint64(m.WireSize())
	ev := e.newEvent(evDeliver)
	ev.from, ev.to, ev.m = h.id, to, m
	e.sched.Schedule(e.latency.Delay(e.sched.Rand()), ev)
	return nil
}

// deliverTo lands a message. Adjacency was validated at Send time: the
// port transfers the bytes into the receiver while the blocks are in
// contact, and the configured latency models the receiver-side queueing and
// processing delay. A message therefore survives the sender moving away
// after the send (e.g. the elected block's SelectAck racing its own hop).
// Each message is its own event and is handed to OnMessage as it lands.
func (e *Engine) deliverTo(from, to lattice.BlockID, m *msg.Message) {
	h := e.hostOf(to)
	if h == nil {
		e.dropped++
		return
	}
	e.deliver++
	h.code.OnMessage(h, from, *m)
}

// hostOf returns id's host, or nil when id has none.
func (e *Engine) hostOf(id lattice.BlockID) *host {
	if uint(id) < uint(len(e.hosts)) {
		return e.hosts[id]
	}
	return nil
}

func (h *host) Sense(v geom.Vec) bool { return h.SenseWindow(v, 0) != 0 }

func (h *host) SenseWindow(anchor geom.Vec, radius int) uint64 {
	return h.eng.world.SenseWindow(h.id, anchor, radius)
}

func (h *host) SensingRadius() int { return h.eng.world.SensingRadius() }
func (h *host) CutVertex() bool    { return h.eng.world.CutVertex(h.id) }

func (h *host) ValidateMoveSet(moves []lattice.PlannedMove) int {
	return h.eng.world.ValidateMoveSet(moves)
}

// Move executes the motion in the World, then schedules its notifications
// in the World's order, on pooled typed events.
func (h *host) Move(app rules.Application) error {
	e := h.eng
	moved, observers, err := e.world.Move(h.id, app)
	if err != nil {
		return err
	}
	for _, d := range moved {
		ev := e.newEvent(evMoved)
		ev.h, ev.vFrom, ev.vTo = e.hostOf(d.ID), d.From, d.To
		e.sched.Schedule(0, ev)
	}
	for _, id := range observers {
		ev := e.newEvent(evNeighborhood)
		ev.h = e.hostOf(id)
		e.sched.Schedule(0, ev)
	}
	return nil
}

var _ exec.Env = (*host)(nil)
