package runtime_test

import (
	"context"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
	"repro/internal/runtime"
	"repro/internal/scenario"
)

// newWorld builds the physical layer of a test run on surf: the standard
// library, I at (1,1), O at (5,5), no motion constraints.
func newWorld(t *testing.T, surf *lattice.Surface) *exec.World {
	t.Helper()
	w, err := exec.NewWorld(surf, rules.StandardLibrary(), geom.V(1, 1), geom.V(5, 5), lattice.Constraints{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAsyncFig10 runs the Fig. 10 instance on the goroutine runtime: same
// BlockCode, real concurrency. The run must succeed and build the path.
func TestAsyncFig10(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatalf("async run: %v (%v)", err, res)
	}
	if !res.Success || !res.PathBuilt {
		t.Fatalf("async run failed: %v", res)
	}
	t.Logf("async: %v", res)
}

// TestAsyncLemmaFamily: a sample of the random instance family also solves
// on the goroutine runtime.
func TestAsyncLemmaFamily(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s, err := scenario.RandomStaircase(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(seed)).Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Success || !res.PathBuilt {
			t.Errorf("seed %d: %v", seed, res)
		}
	}
}

// TestAsyncTimeout: an unsolvable protocol state (a crashed Root never
// opens an election) hits the wall-clock timeout and reports an error
// instead of hanging.
func TestAsyncTimeout(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// A factory of inert blocks: nobody ever sends anything.
	factory := func(id lattice.BlockID) exec.BlockCode { return exec.BlockCodeFuncs{} }
	eng, err := runtime.NewEngine(newWorld(t, s.Surface), factory, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err == nil {
		t.Fatal("inert system should time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestAsyncMessageCountsPlausible: the async engine's message accounting is
// self-consistent (delivered <= sent, no drops in a healthy run).
func TestAsyncMessageCountsPlausible(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(5)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped != 0 {
		t.Errorf("dropped %d in a healthy async run", res.MessagesDropped)
	}
	if res.MessagesSent == 0 {
		t.Error("no messages sent")
	}
}

// TestBurstDeliveredWithoutDrops: a burst of sends from one neighbour goes
// through the block goroutines' message path, and every message reaches
// OnMessage in send order; none is dropped.
func TestBurstDeliveredWithoutDrops(t *testing.T) {
	surf := pairSurface(t)
	const burst = 8
	var eng *runtime.Engine
	var got []uint32 // written only by the receiver's goroutine
	factory := func(lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{
			Start: func(e exec.Env) {
				if e.Position() != geom.V(1, 1) {
					return
				}
				nb := e.Neighbors()[geom.East]
				for i := 0; i < burst; i++ {
					if err := e.Send(nb, msg.Message{Type: msg.TypeAck, Round: uint32(i)}); err != nil {
						t.Error(err)
					}
				}
			},
			Message: func(_ exec.Env, _ lattice.BlockID, m msg.Message) {
				got = append(got, m.Round)
				if len(got) == burst {
					eng.Finish(true, 0)
				}
			},
		}
	}
	eng, err := runtime.NewEngine(newWorld(t, surf), factory, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.MessagesSent != burst || m.MessagesDelivered != burst || m.MessagesDropped != 0 {
		t.Errorf("sent %d, delivered %d, dropped %d; want %d, %d, 0",
			m.MessagesSent, m.MessagesDelivered, m.MessagesDropped, burst, burst)
	}
	for i, r := range got {
		if r != uint32(i) {
			t.Fatalf("delivery order %v, want send order", got)
		}
	}
}

// TestSensingWindowEnforced is the goroutine runtime's twin of the DES
// test of the same name: inside the block's own goroutine, the window read
// equals the cell-by-cell rules.WindowAround over Sense, and over the
// surface's own occupancy, for every anchor and radius inside the sensing
// window, and panics for every square that reaches one cell past it. No
// block moves, so reading the surface unlocked is safe.
func TestSensingWindowEnforced(t *testing.T) {
	surf, err := lattice.NewSurface(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []geom.Vec{geom.V(1, 1), geom.V(2, 1), geom.V(1, 2), geom.V(0, 3), geom.V(3, 0)} {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	var eng *runtime.Engine
	checked := 0 // written only by the checking block's goroutine
	factory := func(lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{Start: func(e exec.Env) {
			if e.Position() != geom.V(1, 1) {
				return
			}
			defer eng.Finish(true, 0)
			p, r := e.Position(), e.SensingRadius()
			if r != 2 {
				t.Errorf("SensingRadius = %d, want 2", r)
			}
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					anchor := p.Add(geom.V(dx, dy))
					d := anchor.Chebyshev(p)
					for radius := 0; d+radius <= r; radius++ {
						got := e.SenseWindow(anchor, radius)
						if want := rules.WindowAround(anchor, radius, e.Sense); got != want {
							t.Errorf("SenseWindow(%v, %d) = %#x, Sense cell by cell %#x", anchor, radius, got, want)
						}
						if want := rules.WindowAround(anchor, radius, surf.Occupied); got != want {
							t.Errorf("SenseWindow(%v, %d) = %#x, surface %#x", anchor, radius, got, want)
						}
						checked++
					}
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("SenseWindow(%v, %d) reaches past radius %d but did not panic", anchor, r-d+1, r)
							}
						}()
						e.SenseWindow(anchor, r-d+1)
					}()
				}
			}
		}}
	}
	eng, err = runtime.NewEngine(newWorld(t, surf), factory, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("the block at (1,1) checked no window")
	}
}

// pairSurface is an 8x8 surface holding two adjacent blocks, at (1,1) and
// (2,1).
func pairSurface(t *testing.T) *lattice.Surface {
	t.Helper()
	surf, err := lattice.NewSurface(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []geom.Vec{geom.V(1, 1), geom.V(2, 1)} {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	return surf
}

// TestSendRequiresAdjacency is the goroutine runtime's twin of the DES test
// of the same name: a port joins only laterally adjacent blocks, and a
// block with no host cannot be sent to even when it is adjacent.
func TestSendRequiresAdjacency(t *testing.T) {
	surf := pairSurface(t)
	far, err := surf.Place(geom.V(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	world := newWorld(t, surf)
	var hostless lattice.BlockID
	checked := false // written only by the block at (1,1)
	var eng *runtime.Engine
	factory := func(lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{Start: func(e exec.Env) {
			if e.Position() != geom.V(1, 1) {
				return
			}
			defer eng.Finish(true, 0)
			if err := e.Send(far, msg.Message{Type: msg.TypeAck}); err == nil {
				t.Error("send to non-adjacent block must fail")
			}
			if err := e.Send(e.Neighbors()[geom.East], msg.Message{Type: msg.TypeAck}); err != nil {
				t.Errorf("send to east neighbour failed: %v", err)
			}
			if err := e.Send(hostless, msg.Message{Type: msg.TypeAck}); err == nil {
				t.Error("send to a block with no host must fail")
			}
			checked = true
		}}
	}
	eng, err = runtime.NewEngine(world, factory, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Placed after the engine was built, so the block has no host.
	if hostless, err = surf.Place(geom.V(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the block at (1,1) did not run its checks")
	}
	if m := eng.Metrics(); m.MessagesSent != 1 {
		t.Errorf("MessagesSent = %d, want 1", m.MessagesSent)
	}
}

// TestMoveRejectsNonMover is the goroutine runtime's twin of the DES test
// of the same name: a block cannot execute an application in which it is
// not a mover.
func TestMoveRejectsNonMover(t *testing.T) {
	surf := pairSurface(t)
	checked := false // written only by the block at (2,1)
	var eng *runtime.Engine
	factory := func(lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{Start: func(e exec.Env) {
			if e.Position() != geom.V(2, 1) {
				return
			}
			defer eng.Finish(true, 0)
			app := rules.Application{Rule: rules.EastSliding(), Anchor: geom.V(1, 1)}
			if err := e.Move(app); err == nil || !strings.Contains(err.Error(), "not a mover") {
				t.Errorf("non-mover move: %v", err)
			}
			checked = true
		}}
	}
	eng, err := runtime.NewEngine(newWorld(t, surf), factory, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the block at (2,1) did not run its check")
	}
	if surf.Hops() != 0 {
		t.Errorf("a refused move made %d hops", surf.Hops())
	}
}

// TestMoveTriggersCallbacks is the goroutine runtime's twin of the DES test
// of the same name: the block at (1,1) performs the Fig. 3 east slide from
// its own OnStart; it gets OnMoved, every block within the sensing radius
// of a changed cell gets exactly one OnNeighborhoodChanged, the mover and
// the far block at (7,0) get none, and OnApply fires once.
//
// After its Move returns, the mover starts a flood of one message per port
// that every block relays once. A block's channel is FIFO and Move posts
// every notification before it returns, so a block has handled all of them
// by the time it handles the flood, and the run stops once all have.
func TestMoveTriggersCallbacks(t *testing.T) {
	surf, err := lattice.NewSurface(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3 situation plus a connected chain leading to a distant block at
	// (7,0), outside every sensing window the slide touches.
	cells := []geom.Vec{
		geom.V(0, 0), geom.V(1, 0), geom.V(2, 0), geom.V(0, 1), geom.V(1, 1),
		geom.V(3, 0), geom.V(4, 0), geom.V(5, 0), geom.V(6, 0), geom.V(7, 0),
	}
	for _, v := range cells {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	mover, _ := surf.BlockAt(geom.V(1, 1))
	farID, _ := surf.BlockAt(geom.V(7, 0))
	var observers []lattice.BlockID // within radius 2 of (1,1) or (2,1)
	for _, v := range []geom.Vec{geom.V(0, 0), geom.V(1, 0), geom.V(2, 0), geom.V(0, 1), geom.V(3, 0), geom.V(4, 0)} {
		id, _ := surf.BlockAt(v)
		observers = append(observers, id)
	}

	var (
		mu       sync.Mutex
		moved    = map[lattice.BlockID][2]geom.Vec{}
		notified = map[lattice.BlockID]int{}
		flushed  int
		applies  int // written under the engine lock, read after Drive
		eng      *runtime.Engine
	)
	// flood marks the calling block flushed and relays the flood to every
	// neighbour; the last block to flush stops the run.
	flood := func(e exec.Env) {
		for _, nb := range e.Neighbors() {
			if nb != lattice.None {
				if err := e.Send(nb, msg.Message{Type: msg.TypeAck}); err != nil {
					t.Error(err)
				}
			}
		}
		mu.Lock()
		flushed++
		done := flushed == len(cells)
		mu.Unlock()
		if done {
			eng.Finish(true, 0)
		}
	}
	factory := func(id lattice.BlockID) exec.BlockCode {
		relayed := false // touched only by this block's goroutine
		return exec.BlockCodeFuncs{
			Start: func(e exec.Env) {
				if id != mover {
					return
				}
				if err := e.Move(rules.Application{Rule: rules.EastSliding(), Anchor: geom.V(1, 1)}); err != nil {
					t.Error(err)
				}
				relayed = true
				flood(e)
			},
			Message: func(e exec.Env, _ lattice.BlockID, _ msg.Message) {
				if !relayed {
					relayed = true
					flood(e)
				}
			},
			Moved: func(e exec.Env, from, to geom.Vec) {
				mu.Lock()
				defer mu.Unlock()
				moved[e.ID()] = [2]geom.Vec{from, to}
			},
			NeighborhoodChanged: func(e exec.Env) {
				mu.Lock()
				defer mu.Unlock()
				notified[e.ID()]++
			},
		}
	}
	world, err := exec.NewWorld(surf, rules.StandardLibrary(), geom.V(0, 0), geom.V(7, 0),
		lattice.Constraints{RequireConnectivity: true},
		func(lattice.ApplyResult) { applies++ })
	if err != nil {
		t.Fatal(err)
	}
	if eng, err = runtime.NewEngine(world, factory, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err != nil {
		t.Fatal(err)
	}

	if applies != 1 {
		t.Errorf("OnApply fired %d times", applies)
	}
	if want := map[lattice.BlockID][2]geom.Vec{mover: {geom.V(1, 1), geom.V(2, 1)}}; !maps.Equal(moved, want) {
		t.Errorf("OnMoved calls %v, want %v", moved, want)
	}
	for _, id := range observers {
		if notified[id] != 1 {
			t.Errorf("observer %d got %d neighbourhood callbacks, want 1", id, notified[id])
		}
	}
	if len(notified) != len(observers) {
		t.Errorf("neighbourhood callbacks %v, want one for each of %v", notified, observers)
	}
	if notified[mover] != 0 || notified[farID] != 0 {
		t.Errorf("mover got %d and the far block %d neighbourhood callbacks, want none", notified[mover], notified[farID])
	}
}
