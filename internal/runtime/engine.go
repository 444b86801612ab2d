// Package runtime is the second execution engine: real asynchrony. Every
// block runs as its own goroutine; lateral ports post into the receiver's
// event channel, whose goroutine hands each message to OnMessage as it takes
// it; the shared surface is the physical world, guarded by a lock the way
// physics guards atomicity. The same BlockCode that runs on the
// deterministic DES (internal/sim) runs here unchanged — goroutines and
// channels map directly to the paper's per-module processes and
// finite-delay links (Assumption 3).
package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// Config parameterises an asynchronous run.
type Config struct {
	// Input and Output are the I and O cells.
	Input, Output geom.Vec
	// Seed drives per-block randomness.
	Seed int64
	// Constraints are the physics checks applied to motions.
	Constraints lattice.Constraints
	// OnApply observes executed motions (called with the surface lock held;
	// keep it fast and do not touch the engine from it).
	OnApply func(lattice.ApplyResult)
	// Timeout is the wall-clock safety bound for Drive (default 60s).
	Timeout time.Duration
}

// channelCap is the capacity of each block's event channel; an event
// posted to a full channel is dropped and counted. It sits far above the
// deepest queue a run has reached (under 30 events on fig10, the ridge and
// slope top=30), so a healthy run drops nothing, at 160 bytes per slot.
const channelCap = 4096

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

// Engine hosts one goroutine per block over a shared surface.
type Engine struct {
	mu   sync.RWMutex // guards surf
	surf *lattice.Surface
	lib  *rules.Library
	cfg  Config

	hosts  map[lattice.BlockID]*host
	radius int

	sent      atomic.Uint64
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
	rng  *rand.Rand
}

// NewEngine builds the asynchronous engine over a populated surface.
func NewEngine(surf *lattice.Surface, lib *rules.Library, factory exec.CodeFactory, cfg Config) (*Engine, error) {
	if surf == nil || lib == nil || factory == nil {
		return nil, fmt.Errorf("runtime: surface, library and factory are required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	e := &Engine{
		surf:   surf,
		lib:    lib,
		cfg:    cfg,
		hosts:  make(map[lattice.BlockID]*host, surf.NumBlocks()),
		radius: 2 * lib.MaxRadius(),
		done:   make(chan struct{}),
		stop:   make(chan struct{}),
	}
	for _, id := range surf.Blocks() {
		e.hosts[id] = &host{
			eng:  e,
			id:   id,
			code: factory(id),
			ch:   make(chan event, channelCap),
			rng:  rand.New(rand.NewSource(cfg.Seed ^ int64(id)*0x51d2fa7)),
		}
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
	ids := make([]lattice.BlockID, 0, len(e.hosts))
	for id := range e.hosts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := e.hosts[id]
		e.wg.Add(1)
		go h.loop()
		h.ch <- event{kind: evStart}
	}
	return nil
}

// Drive waits for the Root's termination report, the wall-clock timeout, or
// context cancellation, then stops every block goroutine and waits for them
// to exit. A Move in flight always completes under the surface lock, so on
// any exit path the surface is physically consistent (connected, fully
// rolled back). Channels are never closed: late posts simply stay in
// channels nobody drains.
func (e *Engine) Drive(ctx context.Context) error {
	if !e.booted {
		return fmt.Errorf("runtime: Drive before Boot")
	}
	timer := time.NewTimer(e.cfg.Timeout)
	defer timer.Stop()
	var err error
	select {
	case <-e.done:
	case <-ctx.Done():
		err = ctx.Err()
	case <-timer.C:
		err = fmt.Errorf("runtime: timeout after %v", e.cfg.Timeout)
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
	return exec.Metrics{
		MessagesSent:      e.sent.Load(),
		MessagesDelivered: e.delivered.Load(),
		MessagesDropped:   e.dropped.Load(),
		Events:            e.events.Load(),
		VirtualTime:       elapsed,
	}
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

// --- exec.Env implementation ------------------------------------------------

func (h *host) ID() lattice.BlockID { return h.id }

func (h *host) Position() geom.Vec {
	h.eng.mu.RLock()
	defer h.eng.mu.RUnlock()
	v, ok := h.eng.surf.PositionOf(h.id)
	if !ok {
		panic(fmt.Sprintf("runtime: block %d vanished", h.id))
	}
	return v
}

func (h *host) Input() geom.Vec  { return h.eng.cfg.Input }
func (h *host) Output() geom.Vec { return h.eng.cfg.Output }

func (h *host) Neighbors() [geom.NumDirs]lattice.BlockID {
	h.eng.mu.RLock()
	defer h.eng.mu.RUnlock()
	nt, err := h.eng.surf.Neighbors(h.id)
	if err != nil {
		panic(err)
	}
	return nt
}

func (h *host) Send(to lattice.BlockID, m msg.Message) error {
	e := h.eng
	e.mu.RLock()
	pf, ok1 := e.surf.PositionOf(h.id)
	pt, ok2 := e.surf.PositionOf(to)
	e.mu.RUnlock()
	if !ok1 || !ok2 {
		return fmt.Errorf("runtime: sender or receiver off-surface")
	}
	if _, ok := geom.DirOf(pt, pf); !ok {
		return fmt.Errorf("runtime: blocks %d and %d are not adjacent", h.id, to)
	}
	target, ok := e.hosts[to]
	if !ok {
		return fmt.Errorf("runtime: unknown block %d", to)
	}
	e.sent.Add(1)
	target.post(event{kind: evMessage, from: h.id, m: m})
	return nil
}

func (h *host) Sense(v geom.Vec) bool {
	e := h.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, _ := e.surf.PositionOf(h.id)
	if v.Chebyshev(p) > e.radius {
		panic(fmt.Sprintf("runtime: block %d sensing %v beyond radius %d", h.id, v, e.radius))
	}
	return e.surf.Occupied(v)
}

func (h *host) SensingRadius() int { return h.eng.radius }

func (h *host) CutVertex() bool {
	e := h.eng
	// Full lock: the articulation query may lazily rebuild the connectivity
	// cache, which mutates surface-internal state.
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.surf.PositionOf(h.id)
	if !ok {
		return false
	}
	return e.surf.IsArticulation(p)
}

func (h *host) ValidateMoveSet(moves []lattice.PlannedMove) int {
	e := h.eng
	// Full lock: the batched what-if may lazily rebuild connectivity caches.
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.surf.ValidateMoveSet(moves)
}

func (h *host) Library() *rules.Library { return h.eng.lib }

func (h *host) Move(app rules.Application) error {
	e := h.eng
	e.mu.Lock()
	pos, ok := e.surf.PositionOf(h.id)
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("runtime: block %d off-surface", h.id)
	}
	if _, isMover := app.MoveOf(pos); !isMover {
		e.mu.Unlock()
		return fmt.Errorf("runtime: block %d at %v is not a mover of %s", h.id, pos, app)
	}
	res, err := e.surf.Apply(app, e.cfg.Constraints)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if e.cfg.OnApply != nil {
		e.cfg.OnApply(res)
	}
	// Collect notifications while still consistent.
	type movedNote struct {
		id       lattice.BlockID
		from, to geom.Vec
	}
	var movedNotes []movedNote
	changed := make([]geom.Vec, 0, 4)
	for _, m := range app.AbsMoves() {
		changed = append(changed, m.From, m.To)
		if id, ok := e.surf.BlockAt(m.To); ok {
			movedNotes = append(movedNotes, movedNote{id: id, from: m.From, to: m.To})
		}
	}
	movedSet := map[lattice.BlockID]bool{}
	for _, mn := range movedNotes {
		movedSet[mn.id] = true
	}
	var observers []lattice.BlockID
	seen := map[lattice.BlockID]bool{}
	for _, c := range changed {
		for dy := -e.radius; dy <= e.radius; dy++ {
			for dx := -e.radius; dx <= e.radius; dx++ {
				if id, ok := e.surf.BlockAt(c.Add(geom.V(dx, dy))); ok && !movedSet[id] && !seen[id] {
					seen[id] = true
					observers = append(observers, id)
				}
			}
		}
	}
	e.mu.Unlock()

	sort.Slice(observers, func(i, j int) bool { return observers[i] < observers[j] })
	for _, mn := range movedNotes {
		if mh, ok := e.hosts[mn.id]; ok {
			if mn.id == h.id {
				// The initiator's own OnMoved runs inline to preserve the
				// hook ordering the DES engine provides.
				h.code.OnMoved(h, mn.from, mn.to)
			} else {
				mh.post(event{kind: evMoved, mvFrom: mn.from, mvTo: mn.to})
			}
		}
	}
	for _, id := range observers {
		if oh, ok := e.hosts[id]; ok {
			oh.post(event{kind: evNeighborhood})
		}
	}
	return nil
}

func (h *host) Rand() *rand.Rand { return h.rng }

var _ exec.Env = (*host)(nil)
var _ exec.Termination = (*Engine)(nil)
