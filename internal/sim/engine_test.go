package sim

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// pingPong is a toy BlockCode: the block at the input cell sends a counter
// to its east neighbour; each receiver bumps the counter and sends it back;
// after N exchanges it stops. It exercises ports, delivery and determinism.
type pingPong struct {
	limit  int
	gotMax uint32
}

func (p *pingPong) OnStart(env exec.Env) {
	if env.Position() == env.Input() {
		nt := env.Neighbors()
		if nt[geom.East] != lattice.None {
			_ = env.Send(nt[geom.East], msg.Message{Type: TypePing(), Round: 0})
		}
	}
}

func (p *pingPong) OnMessage(env exec.Env, from lattice.BlockID, m msg.Message) {
	if m.Round > p.gotMax {
		p.gotMax = m.Round
	}
	if int(m.Round) >= p.limit {
		return
	}
	_ = env.Send(from, msg.Message{Type: TypePing(), Round: m.Round + 1})
}

func (p *pingPong) OnMoved(exec.Env, geom.Vec, geom.Vec) {}
func (p *pingPong) OnNeighborhoodChanged(exec.Env)       {}

// TypePing aliases an arbitrary valid wire type for the toy code.
func TypePing() msg.Type { return msg.TypeActivate }

func pairSurface(t *testing.T) *lattice.Surface {
	t.Helper()
	s, err := lattice.NewSurface(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []geom.Vec{geom.V(1, 1), geom.V(2, 1)} {
		if _, err := s.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// pairWorld builds the physical layer of a toy run on surf: the standard
// library, I at (1,1), O at (5,5), no motion constraints.
func pairWorld(t *testing.T, surf *lattice.Surface) *exec.World {
	t.Helper()
	w, err := exec.NewWorld(surf, rules.StandardLibrary(), geom.V(1, 1), geom.V(5, 5), lattice.Constraints{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEnginePingPong(t *testing.T) {
	surf := pairSurface(t)
	codes := map[lattice.BlockID]*pingPong{}
	eng, err := NewEngine(pairWorld(t, surf), func(id lattice.BlockID) exec.BlockCode {
		c := &pingPong{limit: 10}
		codes[id] = c
		return c
	}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Boot()
	eng.sched.Run(0)

	m := eng.Metrics()
	if m.MessagesSent != 11 { // initial ping + 10 replies
		t.Errorf("MessagesSent = %d, want 11", m.MessagesSent)
	}
	if m.MessagesDelivered != 11 {
		t.Errorf("MessagesDelivered = %d", m.MessagesDelivered)
	}
	if m.MessagesDropped != 0 {
		t.Errorf("MessagesDropped = %d", m.MessagesDropped)
	}
	max := uint32(0)
	for _, c := range codes {
		if c.gotMax > max {
			max = c.gotMax
		}
	}
	if max != 10 {
		t.Errorf("final counter = %d, want 10", max)
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, int64) {
		surf := pairSurface(t)
		eng, err := NewEngine(pairWorld(t, surf), func(lattice.BlockID) exec.BlockCode {
			return &pingPong{limit: 50}
		}, Config{Seed: 99, Latency: UniformLatency{Min: 100, Max: 900}})
		if err != nil {
			t.Fatal(err)
		}
		eng.Boot()
		eng.sched.Run(0)
		m := eng.Metrics()
		return m.Events, m.VirtualTime
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Errorf("runs differ: (%d,%d) vs (%d,%d)", e1, t1, e2, t2)
	}
}

func TestSendRequiresAdjacency(t *testing.T) {
	surf := pairSurface(t)
	// Add a distant block.
	far, err := surf.Place(geom.V(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	var env exec.Env
	eng, err := NewEngine(pairWorld(t, surf), func(id lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{
			Start: func(e exec.Env) {
				if e.Position() == geom.V(1, 1) {
					env = e
				}
			},
		}
	}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Boot()
	eng.sched.Run(0)
	if env == nil {
		t.Fatal("env not captured")
	}
	if err := env.Send(far, msg.Message{Type: msg.TypeAck}); err == nil {
		t.Error("send to non-adjacent block must fail")
	}
	nb := env.Neighbors()
	if err := env.Send(nb[geom.East], msg.Message{Type: msg.TypeAck}); err != nil {
		t.Errorf("send to east neighbour failed: %v", err)
	}
}

func TestSensingWindowEnforced(t *testing.T) {
	surf := pairSurface(t)
	// A few more blocks, so the windows below mix occupied and empty cells.
	for _, v := range []geom.Vec{geom.V(1, 2), geom.V(0, 3), geom.V(3, 0)} {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	var env exec.Env
	eng, _ := NewEngine(pairWorld(t, surf), func(id lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{Start: func(e exec.Env) {
			if e.Position() == geom.V(1, 1) {
				env = e
			}
		}}
	}, Config{Seed: 1})
	eng.Boot()
	eng.sched.Run(0)

	if env.SensingRadius() != 2 {
		t.Fatalf("SensingRadius = %d, want 2 (3x3 rules + neighbour exchange)", env.SensingRadius())
	}
	if !env.Sense(geom.V(2, 1)) {
		t.Error("east neighbour should be sensed occupied")
	}
	if env.Sense(geom.V(3, 3)) {
		t.Error("empty in-window cell should be sensed empty")
	}
	checkWindowReads(t, env, surf.Occupied)
	defer func() {
		if recover() == nil {
			t.Error("sensing beyond the window must panic")
		}
	}()
	env.Sense(geom.V(5, 1))
}

// checkWindowReads asserts that env's window read equals the cell-by-cell
// rules.WindowAround over Sense, and over the surface's own occupancy, for
// every anchor and radius inside the sensing window, and panics for every
// square that reaches one cell past it.
func checkWindowReads(t *testing.T, env exec.Env, occupied func(geom.Vec) bool) {
	t.Helper()
	p, r := env.Position(), env.SensingRadius()
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			anchor := p.Add(geom.V(dx, dy))
			d := anchor.Chebyshev(p)
			for radius := 0; d+radius <= r; radius++ {
				got := env.SenseWindow(anchor, radius)
				if want := rules.WindowAround(anchor, radius, env.Sense); got != want {
					t.Errorf("SenseWindow(%v, %d) = %#x, Sense cell by cell %#x", anchor, radius, got, want)
				}
				if want := rules.WindowAround(anchor, radius, occupied); got != want {
					t.Errorf("SenseWindow(%v, %d) = %#x, surface %#x", anchor, radius, got, want)
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("SenseWindow(%v, %d) reaches past radius %d but did not panic", anchor, r-d+1, r)
					}
				}()
				env.SenseWindow(anchor, r-d+1)
			}()
		}
	}
}

// TestMoveTriggersCallbacks: executing a motion calls OnMoved on the movers
// and OnNeighborhoodChanged on observers, and the OnApply hook fires.
func TestMoveTriggersCallbacks(t *testing.T) {
	surf, err := lattice.NewSurface(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3 situation plus a connected chain leading to a distant observer
	// at (7,0) that must NOT be notified (outside every sensing window).
	cells := []geom.Vec{
		geom.V(0, 0), geom.V(1, 0), geom.V(2, 0), geom.V(0, 1), geom.V(1, 1),
		geom.V(3, 0), geom.V(4, 0), geom.V(5, 0), geom.V(6, 0), geom.V(7, 0),
	}
	for _, v := range cells {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	moved := map[lattice.BlockID][2]geom.Vec{}
	notified := map[lattice.BlockID]int{}
	var applies int

	world, err := exec.NewWorld(surf, rules.StandardLibrary(), geom.V(0, 0), geom.V(7, 0),
		lattice.Constraints{RequireConnectivity: true},
		func(lattice.ApplyResult) { applies++ })
	if err != nil {
		t.Fatal(err)
	}
	var envs []exec.Env
	eng, err := NewEngine(world, func(id lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{
			Start: func(e exec.Env) { envs = append(envs, e) },
			Moved: func(e exec.Env, from, to geom.Vec) {
				moved[e.ID()] = [2]geom.Vec{from, to}
			},
			NeighborhoodChanged: func(e exec.Env) { notified[e.ID()]++ },
		}
	}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Boot()
	eng.sched.Run(0)

	// Find the env of the block at (1,1) and slide it east.
	var mover exec.Env
	for _, e := range envs {
		if e.Position() == geom.V(1, 1) {
			mover = e
		}
	}
	if mover == nil {
		t.Fatal("mover env not found")
	}
	app := rules.Application{Rule: rules.EastSliding(), Anchor: geom.V(1, 1)}
	if err := mover.Move(app); err != nil {
		t.Fatal(err)
	}
	eng.sched.Run(0) // drain callbacks

	if applies != 1 {
		t.Errorf("OnApply fired %d times", applies)
	}
	if mv, ok := moved[mover.ID()]; !ok || mv[1] != geom.V(2, 1) {
		t.Errorf("mover OnMoved = %v,%v", mv, ok)
	}
	if mover.Position() != geom.V(2, 1) {
		t.Errorf("position register = %v", mover.Position())
	}
	// The far observer at (7,0) is outside every sensing window.
	farID, _ := surf.BlockAt(geom.V(7, 0))
	if notified[farID] != 0 {
		t.Errorf("far observer notified %d times", notified[farID])
	}
	// At least the direct support blocks saw the change.
	supID, _ := surf.BlockAt(geom.V(1, 0))
	if notified[supID] == 0 {
		t.Error("support block not notified of neighbourhood change")
	}
	// The mover itself must not also get a neighbourhood-change callback.
	if notified[mover.ID()] != 0 {
		t.Errorf("mover got %d neighbourhood callbacks", notified[mover.ID()])
	}
}

func TestMoveRejectsNonMover(t *testing.T) {
	surf := pairSurface(t)
	var env exec.Env
	eng, _ := NewEngine(pairWorld(t, surf), func(id lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{Start: func(e exec.Env) {
			if e.Position() == geom.V(2, 1) {
				env = e
			}
		}}
	}, Config{Seed: 1})
	eng.Boot()
	eng.sched.Run(0)
	// An application whose movers do not include this block.
	app := rules.Application{Rule: rules.EastSliding(), Anchor: geom.V(1, 1)}
	if err := env.Move(app); err == nil || !strings.Contains(err.Error(), "not a mover") {
		t.Errorf("non-mover move: %v", err)
	}
}

// TestBurstDeliveredWithoutDrops: a burst of sends from one neighbour with
// identical latency lands at one instant, and every message reaches
// OnMessage in send order; none is dropped.
func TestBurstDeliveredWithoutDrops(t *testing.T) {
	surf := pairSurface(t)
	var sender exec.Env
	var got []uint32
	eng, err := NewEngine(pairWorld(t, surf), func(id lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{
			Start: func(e exec.Env) {
				if e.Position() == geom.V(1, 1) {
					sender = e
				}
			},
			Message: func(_ exec.Env, _ lattice.BlockID, m msg.Message) { got = append(got, m.Round) },
		}
	}, Config{Seed: 1, Latency: FixedLatency(100)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Boot()
	eng.sched.Run(0)
	nb := sender.Neighbors()[geom.East]
	for i := 0; i < 8; i++ {
		if err := sender.Send(nb, msg.Message{Type: msg.TypeAck, Round: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.sched.Run(0)
	if m := eng.Metrics(); m.MessagesDropped != 0 || m.MessagesDelivered != 8 {
		t.Errorf("dropped %d, delivered %d; want 0, 8", m.MessagesDropped, m.MessagesDelivered)
	}
	for i, r := range got {
		if r != uint32(i) {
			t.Fatalf("delivery order %v, want send order", got)
		}
	}
}

// TestEngineRequiresComponents: constructor validation.
func TestEngineRequiresComponents(t *testing.T) {
	surf := pairSurface(t)
	if _, err := exec.NewWorld(nil, rules.StandardLibrary(), geom.V(1, 1), geom.V(5, 5), lattice.Constraints{}, nil); err == nil {
		t.Error("nil surface must be rejected")
	}
	if _, err := exec.NewWorld(surf, nil, geom.V(1, 1), geom.V(5, 5), lattice.Constraints{}, nil); err == nil {
		t.Error("nil library must be rejected")
	}
	if _, err := NewEngine(nil, func(lattice.BlockID) exec.BlockCode { return nil }, Config{}); err == nil {
		t.Error("nil world must be rejected")
	}
	if _, err := NewEngine(pairWorld(t, surf), nil, Config{}); err == nil {
		t.Error("nil factory must be rejected")
	}
}
