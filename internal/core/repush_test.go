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
	son   lattice.BlockID // routed copy: its next holder (None on a flood)
	id    lattice.BlockID // GO entry or release: its recipient; Ack: its best bid
	cell  geom.Vec        // GO entry or release: the recipient's bid cell
	wave  uint8           // GO entry: the recipient's wave stamp
	hops  uint8           // Activate only
}

// entryTo, reportTo and releaseTo build expected flooded sends; routed
// turns one into the routed copy handed to its receiver.
func entryTo(to, id lattice.BlockID, cell geom.Vec, wave uint8) sent {
	return sent{to: to, typ: msg.TypeSelect, id: id, cell: cell, wave: wave}
}

func reportTo(to, mover lattice.BlockID) sent {
	return sent{to: to, typ: msg.TypeMoveDone, mover: mover}
}

func releaseTo(to, id lattice.BlockID, cell geom.Vec) sent {
	return sent{to: to, typ: msg.TypeMoveDone, id: id, cell: cell}
}

func routed(s sent) sent {
	s.son = s.to
	return s
}

// entry and release build a batch GO entry and a wave release of round for
// id at cell, as the Root routes them; flooded clears Son.
func entry(round uint32, id lattice.BlockID, cell geom.Vec, wave uint8) msg.Message {
	return msg.Message{Type: msg.TypeSelect, Round: round, IDShortest: id, To: msg.CellOf(cell),
		Cands: []msg.Cand{{ID: id, Wave: wave}}}
}

func release(round uint32, id lattice.BlockID, cell geom.Vec) msg.Message {
	return msg.Message{Type: msg.TypeMoveDone, Round: round, IDShortest: id, To: msg.CellOf(cell)}
}

// via returns m as a routed copy handed to son.
func via(m msg.Message, son lattice.BlockID) msg.Message {
	m.Son = son
	return m
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
	switch {
	case m.Type == msg.TypeSelect && len(m.Cands) > 0:
		rec.son, rec.id, rec.cell, rec.wave = m.Son, m.IDShortest, m.To.Vec(), m.Cands[0].Wave
	case m.Type == msg.TypeMoveDone && m.Mover == lattice.None:
		rec.son, rec.id, rec.cell = m.Son, m.IDShortest, m.To.Vec()
	case m.Type == msg.TypeMoveDone:
		rec.son = m.Son
	case m.Type == msg.TypeAck:
		rec.id = m.IDShortest
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
// through the dead-end floods a round retains — a GO entry, a MoveDone
// report and a wave release — and a routed entry it relays, and checks
// which neighbours repushFloods re-sends them to: none while the table is
// unchanged, a new neighbour every flood the block retains but not the
// routed entry, and a neighbour that left and came back every flood,
// including the release it missed.
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

	c20, c21, c22, c23 := geom.V(9, 9), geom.V(1, 2), geom.V(5, 9), geom.V(8, 1)
	b.OnMessage(env, east, entry(round, 20, c20, 0))
	// A dead end flooded 20's report (Son = None: a flood, not routed).
	b.OnMessage(env, north, msg.Message{Type: msg.TypeMoveDone, Round: round, Mover: 20,
		From: msg.CellOf(geom.V(1, 1)), To: msg.CellOf(geom.V(1, 2)), Success: true})
	b.OnMessage(env, west, release(round, 21, c21))
	// 22's entry is routed through this block, on to the north.
	b.OnMessage(env, east, via(entry(round, 22, c22, 1), self))
	want := []sent{
		entryTo(north, 20, c20, 0), entryTo(west, 20, c20, 0),
		reportTo(east, 20), reportTo(west, 20),
		releaseTo(east, 21, c21), releaseTo(north, 21, c21),
		routed(entryTo(north, 22, c22, 1)),
	}
	if got := env.take(); !slices.Equal(got, want) {
		t.Fatalf("forwards %v, want %v", got, want)
	}

	// (a) Every neighbour holds every flood: nothing to re-push.
	b.OnNeighborhoodChanged(env)
	if got := env.take(); len(got) != 0 {
		t.Errorf("unchanged table: re-pushed %v, want nothing", got)
	}

	// (b) A new neighbour gets the entry, the report and the release, and
	// no one else gets anything. The routed entry is not re-pushed.
	env.nt[geom.South] = newcomer
	b.OnNeighborhoodChanged(env)
	want = []sent{entryTo(newcomer, 20, c20, 0), reportTo(newcomer, 20), releaseTo(newcomer, 21, c21)}
	if got := env.take(); !slices.Equal(got, want) {
		t.Errorf("new neighbour: re-pushed %v, want %v", got, want)
	}

	// (c) The west neighbour leaves and misses a second release; when it
	// comes back it is re-sent every flood, that release included.
	env.nt[geom.West] = lattice.None
	b.OnNeighborhoodChanged(env)
	b.OnMessage(env, east, release(round, 23, c23))
	want = []sent{releaseTo(north, 23, c23), releaseTo(newcomer, 23, c23)}
	if got := env.take(); !slices.Equal(got, want) {
		t.Fatalf("second release while west is away: sent %v, want %v", got, want)
	}
	env.nt[geom.West] = west
	b.OnNeighborhoodChanged(env)
	want = []sent{entryTo(west, 20, c20, 0), reportTo(west, 20),
		releaseTo(west, 21, c21), releaseTo(west, 23, c23)}
	if got := env.take(); !slices.Equal(got, want) {
		t.Errorf("returning neighbour: re-pushed %v, want %v", got, want)
	}

	// Once re-pushed, an unchanged table again sends nothing.
	b.OnNeighborhoodChanged(env)
	if got := env.take(); len(got) != 0 {
		t.Errorf("unchanged table after the re-push: re-pushed %v, want nothing", got)
	}
}
