package core

import (
	"slices"
	"testing"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// activate builds round's Activate from father.
func activate(round uint32, father lattice.BlockID) msg.Message {
	return msg.Message{Type: msg.TypeActivate, Round: round, Father: father,
		ShortestDistance: msg.InfiniteDistance, IDShortest: father}
}

// ack builds round's serial Ack from son, carrying bid id at distance d.
func ack(round uint32, son lattice.BlockID, d int32, id lattice.BlockID) msg.Message {
	return msg.Message{Type: msg.TypeAck, Round: round, Son: son, ShortestDistance: d, IDShortest: id}
}

// ackTo is the expected record of an Ack to `to` carrying best bid id.
func ackTo(to, id lattice.BlockID) sent {
	return sent{to: to, typ: msg.TypeAck, id: id}
}

// TestCrossingActivateAcknowledgesItsTwin drives one engaged block through
// the two acknowledgements of its Activates: a subtree Ack from the
// neighbour the Activate engaged, and the crossing Activate of a neighbour
// that engaged first. The crossing Activate is answered by nothing; as the
// last pending acknowledgement it completes the block, which acks its
// father with the subtree's best bid. An Activate from a neighbour the
// block did not activate — its port refused the block's own Activate, or
// it is the father — or whose acknowledgement already arrived, and one of
// an older round each get a neutral Ack.
func TestCrossingActivateAcknowledgesItsTwin(t *testing.T) {
	const round = 3
	const east, north, west, south, self lattice.BlockID = 2, 3, 4, 5, 7
	for _, lastIsEcho := range []bool{true, false} {
		cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
		env := &scriptedEnv{id: self, cfg: cfg, pos: geom.V(5, 5), nt: [geom.NumDirs]lattice.BlockID{
			geom.East: east, geom.North: north, geom.West: west, geom.South: south},
			refuse: []lattice.BlockID{south}}
		b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
		b.OnStart(env)
		b.OnMessage(env, west, activate(round, west))
		want := []sent{{to: east, typ: msg.TypeActivate}, {to: north, typ: msg.TypeActivate}}
		if got := env.take(); !slices.Equal(got, want) {
			t.Fatalf("engaging: sent %v, want %v", got, want)
		}
		env.refuse = nil

		// Neither the father nor the refused neighbour was activated.
		b.OnMessage(env, south, activate(round, south))
		b.OnMessage(env, west, activate(round, west))
		b.OnMessage(env, east, activate(round-1, east))
		want = []sent{ackTo(south, lattice.None), ackTo(west, lattice.None), ackTo(east, lattice.None)}
		if got := env.take(); !slices.Equal(got, want) {
			t.Errorf("fallback: sent %v, want %v", got, want)
		}
		if got := cfg.Counters.NeutralAcks.Load(); got != 3 {
			t.Errorf("NeutralAcks = %d, want 3", got)
		}

		echo := func() { b.OnMessage(env, east, activate(round, east)) }
		subtree := func() { b.OnMessage(env, north, ack(round, north, 4, 30)) }
		first, last := subtree, echo
		if !lastIsEcho {
			first, last = echo, subtree
		}
		first()
		if got := env.take(); len(got) != 0 || !b.ds.Engaged() {
			t.Errorf("last echo %t: first acknowledgement sent %v, engaged %t; want nothing, engaged",
				lastIsEcho, got, b.ds.Engaged())
		}
		last()
		if got, want := env.take(), []sent{ackTo(west, 30)}; !slices.Equal(got, want) || b.ds.Engaged() {
			t.Errorf("last echo %t: last acknowledgement sent %v, engaged %t; want %v, disengaged",
				lastIsEcho, got, b.ds.Engaged(), want)
		}
		// The son already acknowledged the Activate it got.
		b.OnMessage(env, north, activate(round, north))
		if got, want := env.take(), []sent{ackTo(north, lattice.None)}; !slices.Equal(got, want) {
			t.Errorf("last echo %t: Activate from an acknowledged son: sent %v, want %v", lastIsEcho, got, want)
		}
		if got := cfg.Counters.Snapshot(); got.NeutralAcks != 4 || got.RejectedActivates != 0 || got.RejectedAcks != 0 {
			t.Errorf("last echo %t: counters %+v, want 4 neutral acks and no rejection", lastIsEcho, got)
		}
	}
}

// TestRootCompletesOnCrossingActivate: at the Root, too, a crossing
// Activate acknowledges the Root's own Activate and, as the last pending
// acknowledgement, decides the election, while an Activate from a
// neighbour the Root did not activate gets a neutral Ack.
func TestRootCompletesOnCrossingActivate(t *testing.T) {
	const root, east, north, west lattice.BlockID = 1, 2, 3, 4
	for _, lastIsEcho := range []bool{true, false} {
		cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
		env := &scriptedEnv{id: root, cfg: cfg, pos: cfg.Input, nt: [geom.NumDirs]lattice.BlockID{
			geom.East: east, geom.North: north, geom.West: west}, refuse: []lattice.BlockID{west}}
		b := newObservedFactory(cfg, nil, nil)(root).(*BlockCode)
		b.OnStart(env)
		want := []sent{{to: east, typ: msg.TypeActivate}, {to: north, typ: msg.TypeActivate}}
		if got := env.take(); !slices.Equal(got, want) {
			t.Fatalf("opening round 1: sent %v, want %v", got, want)
		}
		env.refuse = nil

		b.OnMessage(env, west, activate(1, west))
		if got, want := env.take(), []sent{ackTo(west, lattice.None)}; !slices.Equal(got, want) {
			t.Errorf("Activate from an unactivated neighbour: sent %v, want %v", got, want)
		}

		echo := func() { b.OnMessage(env, east, activate(1, east)) }
		subtree := func() { b.OnMessage(env, north, ack(1, north, 4, 30)) }
		first, last := subtree, echo
		if !lastIsEcho {
			first, last = echo, subtree
		}
		first()
		if got := env.take(); len(got) != 0 {
			t.Errorf("last echo %t: first acknowledgement sent %v, want nothing", lastIsEcho, got)
		}
		// The election is decided: 30 won, and its Select goes down the
		// subtree that reported it.
		last()
		if got, want := env.take(), []sent{{to: north, typ: msg.TypeSelect}}; !slices.Equal(got, want) {
			t.Errorf("last echo %t: last acknowledgement sent %v, want %v", lastIsEcho, got, want)
		}
		if got := cfg.Counters.Snapshot(); got.Elections != 1 || got.NeutralAcks != 1 || got.RootSelfWins != 0 {
			t.Errorf("last echo %t: counters %+v, want 1 election, 1 neutral ack", lastIsEcho, got)
		}
	}
}

// TestProtocolFaultsAreCounted: the Dijkstra–Scholten violations the block
// code drops, a Root that cannot open an election and a Root that won its
// own election are each counted.
func TestProtocolFaultsAreCounted(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	const root, east, self lattice.BlockID = 1, 2, 7
	env := &scriptedEnv{id: self, cfg: cfg, pos: geom.V(5, 5), nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east}}
	b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
	b.OnStart(env)
	// An Ack before any engagement, then an Activate of a younger round
	// while the block still waits for the acknowledgement of its round-1
	// Activate to the north.
	b.OnMessage(env, east, ack(1, east, 4, 30))
	env.nt[geom.North] = 3
	b.OnMessage(env, east, activate(1, east))
	b.OnMessage(env, east, activate(2, east))
	if got := cfg.Counters.Snapshot(); got.RejectedAcks != 1 || got.RejectedActivates != 1 {
		t.Errorf("counters %+v, want 1 rejected ack and 1 rejected activate", got)
	}

	renv := &scriptedEnv{id: root, cfg: cfg, pos: cfg.Input, nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east}}
	r := newObservedFactory(cfg, nil, nil)(root).(*BlockCode)
	r.OnStart(renv)
	r.startElection(renv, msg.TierDecreasing) // still engaged in round 1
	if got := cfg.Counters.RootBeginFailures.Load(); got != 1 {
		t.Errorf("RootBeginFailures = %d, want 1", got)
	}
	r = newObservedFactory(cfg, nil, nil)(root).(*BlockCode)
	r.isRoot = true
	r.agg.Reset(election.Candidate{Cand: msg.Cand{Distance: 3, ID: root}}, 1)
	r.onElectionComplete(renv)
	if got := cfg.Counters.RootSelfWins.Load(); got != 1 {
		t.Errorf("RootSelfWins = %d, want 1", got)
	}
}

// TestStaleSelectsAndEntriesAreCounted: a serial Select is routed down the
// subtree that reported its winner, but one of another round and one for a
// winner no subtree reported are dropped and counted. A GO entry that
// reaches its winner in another round is dropped and counted too, and the
// winner does not hop on it.
func TestStaleSelectsAndEntriesAreCounted(t *testing.T) {
	const father, north, self, winner lattice.BlockID = 2, 3, 7, 30
	nt := [geom.NumDirs]lattice.BlockID{geom.West: father, geom.North: north}
	serial := NewConfig(geom.V(0, 0), geom.V(0, 9))
	env := &scriptedEnv{id: self, cfg: serial, pos: geom.V(5, 5), nt: nt}
	b := newObservedFactory(serial, nil, nil)(self).(*BlockCode)
	b.OnStart(env)
	b.round, b.father = 3, father
	b.agg.Reset(election.Neutral(), 1)
	b.agg.Fold(&election.Candidate{Cand: msg.Cand{Distance: 4, ID: winner}}, north)
	sel := func(round uint32, id lattice.BlockID) msg.Message {
		return msg.Message{Type: msg.TypeSelect, Round: round, IDShortest: id}
	}
	steps := []struct {
		what string
		m    msg.Message
		want []sent
		ctr  CounterValues
	}{
		{"the round's Select", sel(3, winner), []sent{{to: north, typ: msg.TypeSelect}}, CounterValues{}},
		{"an older round's Select", sel(2, winner), nil, CounterValues{StaleSelects: 1}},
		{"a younger round's Select", sel(4, winner), nil, CounterValues{StaleSelects: 2}},
		{"a Select for an unreported winner", sel(3, winner+1), nil,
			CounterValues{StaleSelects: 2, UnroutedSelects: 1}},
	}
	for _, s := range steps {
		b.OnMessage(env, father, s.m)
		if got := env.take(); !slices.Equal(got, s.want) {
			t.Errorf("%s: sent %v, want %v", s.what, got, s.want)
		}
		if got := serial.Counters.Snapshot(); got != s.ctr {
			t.Errorf("%s: counters %+v, want %+v", s.what, got, s.ctr)
		}
	}

	batch := NewConfig(geom.V(0, 0), geom.V(0, 9))
	batch.ParallelMoves = 4
	env = &scriptedEnv{id: self, cfg: batch, pos: geom.V(5, 5), nt: nt}
	b = newObservedFactory(batch, nil, nil)(self).(*BlockCode)
	b.OnStart(env)
	b.round = 3
	for _, round := range []uint32{2, 4} {
		b.OnMessage(env, north, via(entry(round, self, env.pos, 0), self))
	}
	if got := env.take(); len(got) != 0 {
		t.Errorf("entries of other rounds: sent %v, want nothing", got)
	}
	if got := batch.Counters.Snapshot(); got != (CounterValues{StaleEntries: 2}) {
		t.Errorf("entries of other rounds: counters %+v, want 2 stale entries and no hop attempt", got)
	}
}

// surfaceEnv is a scriptedEnv that senses a real surface, so its block
// plans real moves, with one rule library.
type surfaceEnv struct {
	*scriptedEnv
	surf *lattice.Surface
	lib  *rules.Library
}

func (e *surfaceEnv) Library() *rules.Library { return e.lib }

func (e *surfaceEnv) Sense(v geom.Vec) bool { return e.surf.Occupied(v) }

func (e *surfaceEnv) SenseWindow(anchor geom.Vec, radius int) uint64 {
	return e.surf.OccWindow(anchor, radius)
}

// discardEnv is a scriptedEnv whose sends go nowhere and record nothing,
// so they allocate nothing either.
type discardEnv struct {
	*scriptedEnv
	last msg.Message
}

func (e *discardEnv) Send(_ lattice.BlockID, m msg.Message) error {
	e.last = m
	return nil
}

// TestWarmPlanAndAckAllocateNothing: at k=16 a block's warm plan and its
// father-ack reuse the block's buffers, and so does the Root's admission of
// the winners, so a round's bids, acks and election allocate nothing.
func TestWarmPlanAndAckAllocateNothing(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 6))
	cfg.ParallelMoves = 16
	const self lattice.BlockID = 7
	// A 2x3 tower: column x=1, lane x=2; the top lane block plans.
	pos := geom.V(2, 2)
	env := &surfaceEnv{
		scriptedEnv: &scriptedEnv{id: self, cfg: cfg, pos: pos},
		surf: surfaceWith(t, 6, 9, geom.V(1, 0), geom.V(2, 0), geom.V(1, 1), geom.V(2, 1),
			geom.V(1, 2), pos),
		lib: rules.StandardLibrary(),
	}
	b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
	b.hasNoReturn, b.noReturnTo = true, geom.V(3, 2)
	if len(b.plan(env, pos, msg.TierRetreat)) == 0 {
		t.Fatal("the top lane block plans no move")
	}
	if n := testing.AllocsPerRun(100, func() { b.plan(env, pos, msg.TierRetreat) }); n != 0 {
		t.Errorf("warm plan: %v allocations, want 0", n)
	}

	denv := &discardEnv{scriptedEnv: env.scriptedEnv}
	b.father = 4
	b.agg.Reset(election.Candidate{Cand: msg.Cand{Distance: 9, ID: self}}, b.foldWidth())
	for i := range msg.MaxBatch + 4 {
		b.agg.Fold(&election.Candidate{Cand: msg.Cand{Distance: int32(i), ID: lattice.BlockID(100 + i)}}, 3)
	}
	b.ackFather(denv)
	if n := len(denv.last.Cands); n != msg.MaxBatch {
		t.Fatalf("ack carries %d candidates, want %d", n, msg.MaxBatch)
	}
	if n := testing.AllocsPerRun(100, func() { b.ackFather(denv) }); n != 0 {
		t.Errorf("warm ackFather: %v allocations, want 0", n)
	}

	// The Root's admission reuses its buffers as well: eight eastward movers
	// ten columns apart pass the disjoint pass, and the follower behind each
	// joins its conveyor wave through the what-if (which denv accepts).
	slide := func(id lattice.BlockID, from geom.Vec, dist int32) *election.Candidate {
		return &election.Candidate{Cand: msg.Cand{ID: id, Distance: dist,
			Pos: msg.CellOf(from), To: msg.CellOf(from.Add(geom.V(1, 0))),
			Fp: msg.Footprint{Write: 1<<4 | 1<<5, Anchor: msg.CellOf(from), Radius: 1}}}
	}
	b.agg.Reset(*slide(100, geom.V(10, 20), 1), b.foldWidth())
	for i := range 8 {
		if i > 0 {
			b.agg.Fold(slide(lattice.BlockID(100+i), geom.V(10*(i+1), 20), int32(1+i)), 3)
		}
		b.agg.Fold(slide(lattice.BlockID(200+i), geom.V(10*(i+1)-1, 20), int32(9+i)), 3)
	}
	b.moveSet = b.admitWinners(denv, b.moveSet[:0])
	if len(b.moveSet) != 16 || b.moveWaves[15] != 8 {
		t.Fatalf("admitted %v with stamps %v, want 8 disjoint winners and 8 wave members", b.moveSet, b.moveWaves)
	}
	if n := testing.AllocsPerRun(100, func() { b.moveSet = b.admitWinners(denv, b.moveSet[:0]) }); n != 0 {
		t.Errorf("warm admitWinners: %v allocations, want 0", n)
	}
}
