package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// sent is one message a scriptedEnv's block sent.
type sent struct {
	to    lattice.BlockID
	typ   msg.Type
	mover lattice.BlockID // MoveDone only
}

// scriptedEnv hosts one BlockCode on a Neighbor Table the test sets by
// hand, and records every Send. The block never moves and senses nothing.
type scriptedEnv struct {
	id   lattice.BlockID
	cfg  Config
	nt   [geom.NumDirs]lattice.BlockID
	sent []sent
}

func (e *scriptedEnv) ID() lattice.BlockID                      { return e.id }
func (e *scriptedEnv) Position() geom.Vec                       { return geom.V(5, 5) }
func (e *scriptedEnv) Input() geom.Vec                          { return e.cfg.Input }
func (e *scriptedEnv) Output() geom.Vec                         { return e.cfg.Output }
func (e *scriptedEnv) Neighbors() [geom.NumDirs]lattice.BlockID { return e.nt }
func (e *scriptedEnv) Sense(geom.Vec) bool                      { return false }
func (e *scriptedEnv) SenseWindow(geom.Vec, int) uint64         { return 0 }
func (e *scriptedEnv) SensingRadius() int                       { return 2 }
func (e *scriptedEnv) CutVertex() bool                          { return false }
func (e *scriptedEnv) Library() *rules.Library                  { return rules.StandardLibrary() }

func (e *scriptedEnv) ValidateMoveSet(moves []lattice.PlannedMove) int { return len(moves) }

func (e *scriptedEnv) Move(rules.Application) error { return errors.New("scripted block cannot move") }

func (e *scriptedEnv) Send(to lattice.BlockID, m msg.Message) error {
	if to == lattice.None || !slices.Contains(e.nt[:], to) {
		return errors.New("not adjacent")
	}
	e.sent = append(e.sent, sent{to: to, typ: m.Type, mover: m.Mover})
	return nil
}

// take returns the Sends recorded since the last take.
func (e *scriptedEnv) take() []sent {
	out := e.sent
	e.sent = nil
	return out
}

var _ exec.Env = (*scriptedEnv)(nil)

// TestRepushOnlyToNeighboursLackingFloods drives one block of a k=4 run
// through a round's GO and MoveDone floods and checks which neighbours
// repushFloods re-sends them to: none while the table is unchanged, a new
// neighbour everything the block retains, and a neighbour that left and
// came back every flood, including the MoveDone it missed.
func TestRepushOnlyToNeighboursLackingFloods(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	cfg.ParallelMoves = 4
	const round = 3
	const (
		east, north, west, newcomer lattice.BlockID = 2, 3, 4, 5
		self                        lattice.BlockID = 7
	)
	env := &scriptedEnv{id: self, cfg: cfg, nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east, geom.North: north, geom.West: west}}
	b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
	b.OnStart(env)

	moveDone := func(mover lattice.BlockID) msg.Message {
		return msg.Message{Type: msg.TypeMoveDone, Round: round, Mover: mover,
			From: geom.V(1, 1), To: geom.V(1, 2), Success: true}
	}
	b.OnMessage(env, east, msg.Message{Type: msg.TypeSelect, Round: round,
		Cands: []msg.Cand{{ID: 20}, {ID: 21}, {ID: 22}}})
	b.OnMessage(env, north, moveDone(20))
	b.OnMessage(env, west, moveDone(21))
	want := []sent{
		{north, msg.TypeSelect, 0}, {west, msg.TypeSelect, 0},
		{east, msg.TypeMoveDone, 20}, {west, msg.TypeMoveDone, 20},
		{east, msg.TypeMoveDone, 21}, {north, msg.TypeMoveDone, 21},
	}
	if got := env.take(); !slices.Equal(got, want) {
		t.Fatalf("flood forwards %v, want %v", got, want)
	}

	// (a) Every neighbour holds every flood: nothing to re-push.
	b.OnNeighborhoodChanged(env)
	if got := env.take(); len(got) != 0 {
		t.Errorf("unchanged table: re-pushed %v, want nothing", got)
	}

	// (b) A new neighbour gets the GO and both MoveDones, and no one else
	// gets anything.
	env.nt[geom.South] = newcomer
	b.OnNeighborhoodChanged(env)
	want = []sent{
		{newcomer, msg.TypeSelect, 0},
		{newcomer, msg.TypeMoveDone, 20}, {newcomer, msg.TypeMoveDone, 21},
	}
	if got := env.take(); !slices.Equal(got, want) {
		t.Errorf("new neighbour: re-pushed %v, want %v", got, want)
	}

	// (c) The west neighbour leaves and misses a third MoveDone; when it
	// comes back it is re-sent every flood, that MoveDone included.
	env.nt[geom.West] = lattice.None
	b.OnNeighborhoodChanged(env)
	b.OnMessage(env, east, moveDone(22))
	want = []sent{{north, msg.TypeMoveDone, 22}, {newcomer, msg.TypeMoveDone, 22}}
	if got := env.take(); !slices.Equal(got, want) {
		t.Fatalf("third MoveDone while west is away: sent %v, want %v", got, want)
	}
	env.nt[geom.West] = west
	b.OnNeighborhoodChanged(env)
	want = []sent{
		{west, msg.TypeSelect, 0},
		{west, msg.TypeMoveDone, 20}, {west, msg.TypeMoveDone, 21}, {west, msg.TypeMoveDone, 22},
	}
	if got := env.take(); !slices.Equal(got, want) {
		t.Errorf("returning neighbour: re-pushed %v, want %v", got, want)
	}

	// Once re-pushed, an unchanged table again sends nothing.
	b.OnNeighborhoodChanged(env)
	if got := env.take(); len(got) != 0 {
		t.Errorf("unchanged table after the re-push: re-pushed %v, want nothing", got)
	}
}
