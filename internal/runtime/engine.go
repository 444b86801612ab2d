// Package runtime is the second execution engine: real asynchrony. Every
// block runs as its own goroutine; lateral ports post into the receiver's
// event channel, whose goroutine hands each message to OnMessage as it takes
// it. The engine owns only those goroutines, their channels and one lock:
// the run's exec.World is the physical world, and every Env call reaches it
// under that lock, the way physics guards atomicity. The same BlockCode
// that runs on the deterministic DES (internal/sim) runs here unchanged —
// goroutines and channels map directly to the paper's per-module processes
// and finite-delay links (Assumption 3).
package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// channelCap is the capacity of each block's event channel; an event
// posted to a full channel is dropped and counted. The deepest queue
// measured is under 90 events, on slope top=30 at k=16 (under 10 on fig10
// and slope top=30 at k=1, 25 on the ridge), so 1,024 slots leave 11x
// headroom and a healthy run drops nothing, at 104 bytes per slot (a
// 64-byte msg.Message and the two positions of a displacement).
const channelCap = 1024

type eventKind uint8

const (
	evStart eventKind = iota
	evMessage
	evMoved
	evNeighborhood
)

type event struct {
	kind         eventKind
	from         lattice.BlockID
	m            msg.Message
	mvFrom, mvTo geom.Vec
}

// Engine hosts one goroutine per block on a shared World.
type Engine struct {
	mu      sync.RWMutex // guards world
	world   *exec.World
	timeout time.Duration

	// hosts is indexed by BlockID (surface ids are small and dense); nil
	// marks an id with no host.
	hosts []*host

	sent      atomic.Uint64
	byType    [msg.NumTypes + 1]atomic.Uint64
	wire      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	events    atomic.Uint64

	done chan struct{} // closed by Finish
	stop chan struct{} // closed by Drive at shutdown
	once sync.Once
	wg   sync.WaitGroup

	booted  bool
	started time.Time
	wall    atomic.Int64 // elapsed ns, frozen when Drive returns
}

type host struct {
	eng  *Engine
	id   lattice.BlockID
	code exec.BlockCode
	ch   chan event

	// moved and observers hold a Move's notifications from under the lock
	// until they are delivered; only this block's goroutine touches them.
	moved     []exec.Displacement
	observers []lattice.BlockID
}

// NewEngine builds the asynchronous engine over world. timeout is the
// wall-clock safety bound for Drive; zero or less means 60s.
func NewEngine(world *exec.World, factory exec.CodeFactory, timeout time.Duration) (*Engine, error) {
	if world == nil || factory == nil {
		return nil, fmt.Errorf("runtime: world and factory are required")
	}
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	e := &Engine{
		world:   world,
		timeout: timeout,
		done:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	for _, id := range world.Blocks() {
		e.hosts = append(e.hosts, make([]*host, int(id)+1-len(e.hosts))...) // ids ascend
		e.hosts[id] = &host{eng: e, id: id, code: factory(id), ch: make(chan event, channelCap)}
	}
	return e, nil
}

// Finish implements exec.Termination: the Root's completion report stops
// Drive. The verdict itself is the session layer's to record.
func (e *Engine) Finish(bool, int) {
	e.once.Do(func() { close(e.done) })
}

// Boot starts one goroutine per block, in ascending id order, and posts the
// OnStart event to each. It implements the Boot half of the core.Backend
// seam.
func (e *Engine) Boot() error {
	if e.booted {
		return fmt.Errorf("runtime: engine booted twice")
	}
	e.booted = true
	e.started = time.Now()
	for _, h := range e.hosts {
		if h != nil {
			e.wg.Add(1)
			go h.loop()
			h.ch <- event{kind: evStart}
		}
	}
	return nil
}

// Drive waits for the Root's termination report, the wall-clock timeout, or
// context cancellation, then stops every block goroutine and waits for them
// to exit. A Move in flight always completes under the engine lock, so on
// any exit path the surface is physically consistent (connected, fully
// rolled back). Channels are never closed: late posts simply stay in
// channels nobody drains.
func (e *Engine) Drive(ctx context.Context) error {
	if !e.booted {
		return fmt.Errorf("runtime: Drive before Boot")
	}
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	var err error
	select {
	case <-e.done:
	case <-ctx.Done():
		err = ctx.Err()
	case <-timer.C:
		err = fmt.Errorf("runtime: timeout after %v", e.timeout)
	}
	close(e.stop)
	e.wg.Wait()
	e.wall.Store(time.Since(e.started).Nanoseconds())
	return err
}

// Metrics implements the measurement half of the core.Backend seam. The
// goroutine runtime has no virtual clock, so VirtualTime reports elapsed
// wall-clock nanoseconds since Boot and Events the number of per-block
// events dispatched.
func (e *Engine) Metrics() exec.Metrics {
	elapsed := e.wall.Load()
	if elapsed == 0 && e.booted {
		elapsed = time.Since(e.started).Nanoseconds()
	}
	m := exec.Metrics{
		MessagesSent:      e.sent.Load(),
		WireBytes:         e.wire.Load(),
		MessagesDelivered: e.delivered.Load(),
		MessagesDropped:   e.dropped.Load(),
		Events:            e.events.Load(),
		VirtualTime:       elapsed,
	}
	for t := range e.byType {
		m.SentByType[t] = e.byType[t].Load()
	}
	return m
}

// loop is the per-block goroutine: it serialises all hooks of one block.
func (h *host) loop() {
	defer h.eng.wg.Done()
	for {
		select {
		case <-h.eng.stop:
			return
		case ev := <-h.ch:
			h.eng.events.Add(1)
			switch ev.kind {
			case evStart:
				h.code.OnStart(h)
			case evMessage:
				h.eng.delivered.Add(1)
				h.code.OnMessage(h, ev.from, ev.m)
			case evMoved:
				h.code.OnMoved(h, ev.mvFrom, ev.mvTo)
			case evNeighborhood:
				h.code.OnNeighborhoodChanged(h)
			}
		}
	}
}

// post enqueues an event without blocking; overflow counts as a drop.
// Channels are never closed, so posting is always safe.
func (h *host) post(ev event) {
	select {
	case h.ch <- ev:
	default:
		h.eng.dropped.Add(1)
	}
}

// hostOf returns id's host, or nil when id has none.
func (e *Engine) hostOf(id lattice.BlockID) *host {
	if uint(id) < uint(len(e.hosts)) {
		return e.hosts[id]
	}
	return nil
}

// --- exec.Env implementation ------------------------------------------------

// The identity, I, O, library and radius are fixed for the run: no lock.
func (h *host) ID() lattice.BlockID     { return h.id }
func (h *host) Input() geom.Vec         { return h.eng.world.Input() }
func (h *host) Output() geom.Vec        { return h.eng.world.Output() }
func (h *host) Library() *rules.Library { return h.eng.world.Library() }
func (h *host) SensingRadius() int      { return h.eng.world.SensingRadius() }

func (h *host) Position() geom.Vec {
	h.eng.mu.RLock()
	defer h.eng.mu.RUnlock()
	return h.eng.world.Position(h.id)
}

func (h *host) Neighbors() [geom.NumDirs]lattice.BlockID {
	h.eng.mu.RLock()
	defer h.eng.mu.RUnlock()
	return h.eng.world.Neighbors(h.id)
}

func (h *host) Send(to lattice.BlockID, m msg.Message) error {
	e := h.eng
	e.mu.RLock()
	err := e.world.Port(h.id, to)
	e.mu.RUnlock()
	if err != nil {
		return err
	}
	target := e.hostOf(to)
	if target == nil {
		return fmt.Errorf("runtime: unknown block %d", to)
	}
	e.sent.Add(1)
	e.byType[m.Type.Slot()].Add(1)
	e.wire.Add(uint64(m.WireSize()))
	target.post(event{kind: evMessage, from: h.id, m: m})
	return nil
}

func (h *host) Sense(v geom.Vec) bool { return h.SenseWindow(v, 0) != 0 }

func (h *host) SenseWindow(anchor geom.Vec, radius int) uint64 {
	h.eng.mu.RLock()
	defer h.eng.mu.RUnlock()
	return h.eng.world.SenseWindow(h.id, anchor, radius)
}

// CutVertex and ValidateMoveSet take the full lock (see exec.World).
func (h *host) CutVertex() bool {
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	return h.eng.world.CutVertex(h.id)
}

func (h *host) ValidateMoveSet(moves []lattice.PlannedMove) int {
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	return h.eng.world.ValidateMoveSet(moves)
}

func (h *host) Move(app rules.Application) error {
	e := h.eng
	e.mu.Lock()
	moved, observers, err := e.world.Move(h.id, app)
	h.moved = append(h.moved[:0], moved...)
	h.observers = append(h.observers[:0], observers...)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	// Deliver from the host's buffers, detached while they are read: the
	// inline OnMoved below may Move again, which refills them.
	moved, observers = h.moved, h.observers
	h.moved, h.observers = nil, nil
	for _, d := range moved {
		if d.ID == h.id {
			// The initiator's own OnMoved runs inline to preserve the hook
			// ordering the DES engine provides.
			h.code.OnMoved(h, d.From, d.To)
		} else if mh := e.hostOf(d.ID); mh != nil {
			mh.post(event{kind: evMoved, mvFrom: d.From, mvTo: d.To})
		}
	}
	for _, id := range observers {
		if oh := e.hostOf(id); oh != nil {
			oh.post(event{kind: evNeighborhood})
		}
	}
	h.moved, h.observers = moved, observers
	return nil
}

var _ exec.Env = (*host)(nil)
var _ exec.Termination = (*Engine)(nil)
