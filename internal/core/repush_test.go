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
	mover lattice.BlockID // MoveDone report: the block that hopped
	son   lattice.BlockID // MoveDone report: the routed copy's next holder
	id    lattice.BlockID // MoveDone release: the released block
	hops  uint8           // Activate only
}

// goTo, reportTo, routedTo and releaseTo build expected sends.
func goTo(to lattice.BlockID) sent { return sent{to: to, typ: msg.TypeSelect} }

// reportTo is a flooded copy of mover's report.
func reportTo(to, mover lattice.BlockID) sent {
	return sent{to: to, typ: msg.TypeMoveDone, mover: mover}
}

// routedTo is a routed copy of mover's report.
func routedTo(to, mover lattice.BlockID) sent {
	return sent{to: to, typ: msg.TypeMoveDone, mover: mover, son: to}
}

func releaseTo(to, id lattice.BlockID) sent {
	return sent{to: to, typ: msg.TypeMoveDone, id: id}
}

// scriptedEnv hosts one BlockCode on a cell and a Neighbor Table the test
// sets by hand, and records every Send. The block senses nothing, so it
// plans no move.
type scriptedEnv struct {
	id   lattice.BlockID
	cfg  Config
	pos  geom.Vec
	nt   [geom.NumDirs]lattice.BlockID
	sent []sent
	// refuse lists ports that refuse every Send, as the goroutine
	// runtime's do when the neighbour moved after the table read.
	refuse []lattice.BlockID
	// deliver, when set, receives every accepted Send (see mesh).
	deliver func(to lattice.BlockID, m msg.Message)
}

func (e *scriptedEnv) ID() lattice.BlockID                      { return e.id }
func (e *scriptedEnv) Position() geom.Vec                       { return e.pos }
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
	if to == lattice.None || !slices.Contains(e.nt[:], to) || slices.Contains(e.refuse, to) {
		return errors.New("not adjacent")
	}
	rec := sent{to: to, typ: m.Type, mover: m.Mover, hops: m.Hops}
	if m.Type == msg.TypeMoveDone {
		rec.son, rec.id = m.Son, m.IDShortest
	}
	e.sent = append(e.sent, rec)
	if e.deliver != nil {
		e.deliver(to, m)
	}
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
// through the floods a round retains — the GO, a dead-end MoveDone report
// and the Root's wave releases — and checks which neighbours repushFloods
// re-sends them to: none while the table is unchanged, a new neighbour
// everything the block retains, and a neighbour that left and came back
// every flood, including the release it missed.
func TestRepushOnlyToNeighboursLackingFloods(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	cfg.ParallelMoves = 4
	const round = 3
	const (
		east, north, west, newcomer lattice.BlockID = 2, 3, 4, 5
		self                        lattice.BlockID = 7
	)
	env := &scriptedEnv{id: self, cfg: cfg, pos: geom.V(5, 5), nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east, geom.North: north, geom.West: west}}
	b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
	b.OnStart(env)

	release := func(id lattice.BlockID) msg.Message {
		return msg.Message{Type: msg.TypeMoveDone, Round: round, IDShortest: id}
	}
	b.OnMessage(env, east, msg.Message{Type: msg.TypeSelect, Round: round,
		Cands: []msg.Cand{{ID: 20}, {ID: 21, Wave: 1}, {ID: 22, Wave: 2}}})
	// A dead end flooded 20's report (Son = None: a flood, not routed).
	b.OnMessage(env, north, msg.Message{Type: msg.TypeMoveDone, Round: round, Mover: 20,
		From: geom.V(1, 1), To: geom.V(1, 2), Success: true})
	b.OnMessage(env, west, release(21))
	want := []sent{
		goTo(north), goTo(west),
		reportTo(east, 20), reportTo(west, 20),
		releaseTo(east, 21), releaseTo(north, 21),
	}
	if got := env.take(); !slices.Equal(got, want) {
		t.Fatalf("flood forwards %v, want %v", got, want)
	}

	// (a) Every neighbour holds every flood: nothing to re-push.
	b.OnNeighborhoodChanged(env)
	if got := env.take(); len(got) != 0 {
		t.Errorf("unchanged table: re-pushed %v, want nothing", got)
	}

	// (b) A new neighbour gets the GO, the report and the release, and no
	// one else gets anything.
	env.nt[geom.South] = newcomer
	b.OnNeighborhoodChanged(env)
	want = []sent{goTo(newcomer), reportTo(newcomer, 20), releaseTo(newcomer, 21)}
	if got := env.take(); !slices.Equal(got, want) {
		t.Errorf("new neighbour: re-pushed %v, want %v", got, want)
	}

	// (c) The west neighbour leaves and misses a second release; when it
	// comes back it is re-sent every flood, that release included.
	env.nt[geom.West] = lattice.None
	b.OnNeighborhoodChanged(env)
	b.OnMessage(env, east, release(22))
	want = []sent{releaseTo(north, 22), releaseTo(newcomer, 22)}
	if got := env.take(); !slices.Equal(got, want) {
		t.Fatalf("second release while west is away: sent %v, want %v", got, want)
	}
	env.nt[geom.West] = west
	b.OnNeighborhoodChanged(env)
	want = []sent{goTo(west), reportTo(west, 20), releaseTo(west, 21), releaseTo(west, 22)}
	if got := env.take(); !slices.Equal(got, want) {
		t.Errorf("returning neighbour: re-pushed %v, want %v", got, want)
	}

	// Once re-pushed, an unchanged table again sends nothing.
	b.OnNeighborhoodChanged(env)
	if got := env.take(); len(got) != 0 {
		t.Errorf("unchanged table after the re-push: re-pushed %v, want nothing", got)
	}
}
