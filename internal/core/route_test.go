package core

import (
	"slices"
	"testing"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
)

// hopFootprint is the write footprint of a simple hop from pos by d.
func hopFootprint(pos geom.Vec, d geom.Vec) msg.Footprint {
	return msg.Footprint{Anchor: msg.CellOf(pos), Radius: 1,
		Write: windowBit(geom.V(0, 0), 1, 3) | windowBit(d, 1, 3)}
}

// TestRootRoutesOneSelectPerWinner: at k>1 the Root sends each admitted
// winner exactly one Select, routed towards the cell the winner bid from
// and carrying the winner's wave stamp, and nothing else.
func TestRootRoutesOneSelectPerWinner(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	cfg.ParallelMoves = 4
	const root, east, north lattice.BlockID = 1, 2, 3
	env := &scriptedEnv{id: root, cfg: cfg, pos: cfg.Input, nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east, geom.North: north}}
	b := newObservedFactory(cfg, nil, nil)(root).(*BlockCode)
	b.isRoot, b.round = true, 3
	b.agg.Reset(election.Neutral(), msg.MaxBatch)
	// 20 and 21 are window-disjoint; 22 follows 20 north into the cell 20
	// vacates, so it joins as 20's wave member.
	up := geom.V(0, 1)
	bids := []struct {
		id       lattice.BlockID
		pos      geom.Vec
		distance int32
		from     lattice.BlockID
	}{
		{20, geom.V(6, 2), 5, east},
		{21, geom.V(1, 7), 6, north},
		{22, geom.V(6, 1), 7, east},
	}
	for _, c := range bids {
		b.agg.Fold(&election.Candidate{Cand: msg.Cand{ID: c.id, Distance: c.distance, Pos: msg.CellOf(c.pos),
			To: msg.CellOf(c.pos.Add(up)), Fp: hopFootprint(c.pos, up)}}, c.from)
	}
	b.onElectionComplete(env)
	if !slices.Equal(b.moveSet, []lattice.BlockID{20, 21, 22}) || !slices.Equal(b.moveWaves, []uint8{0, 0, 1}) {
		t.Fatalf("admitted %v with stamps %v, want [20 21 22] with [0 0 1]", b.moveSet, b.moveWaves)
	}
	want := []sent{
		routed(entryTo(east, 20, geom.V(6, 2), 0)),
		routed(entryTo(north, 21, geom.V(1, 7), 0)),
		routed(entryTo(east, 22, geom.V(6, 1), 1)),
	}
	if got := env.take(); !slices.Equal(got, want) {
		t.Errorf("Root sent %v, want %v", got, want)
	}
}

// TestRelayRoutesEntriesAndReleasesTowardTheirCell: a relay hands a GO
// entry or a release to the side along the larger gap to the recipient's
// bid cell, falls back to the other nearer side when that port refuses,
// and floods only at a dead end — both nearer ports refusing, or the bid
// cell itself when a carry displaced the recipient — counting each flood
// by its kind.
func TestRelayRoutesEntriesAndReleasesTowardTheirCell(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	cfg.ParallelMoves = 4
	const east, north, west, south, self lattice.BlockID = 2, 3, 4, 5, 7
	pos := geom.V(5, 3)
	// The bid cell lies 4 columns east and 2 rows south of the relay.
	cell := geom.V(9, 1)
	env := &scriptedEnv{id: self, cfg: cfg, pos: pos, nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east, geom.North: north, geom.West: west, geom.South: south}}
	b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
	b.OnStart(env)
	all := []lattice.BlockID{east, north, west, south}
	for _, kind := range []struct {
		name string
		m    func(id lattice.BlockID, cell geom.Vec) msg.Message
		to   func(to, id lattice.BlockID, cell geom.Vec) sent
	}{
		{"entry",
			func(id lattice.BlockID, cell geom.Vec) msg.Message { return entry(3, id, cell, 1) },
			func(to, id lattice.BlockID, cell geom.Vec) sent { return entryTo(to, id, cell, 1) }},
		{"release", func(id lattice.BlockID, cell geom.Vec) msg.Message { return release(3, id, cell) }, releaseTo},
	} {
		// Each case names its own recipient, so no flood repeats an earlier
		// one.
		for _, c := range []struct {
			id     lattice.BlockID
			cell   geom.Vec
			refuse []lattice.BlockID
			want   []lattice.BlockID
			flood  bool
		}{
			{20, cell, nil, []lattice.BlockID{east}, false},
			{21, cell, []lattice.BlockID{east}, []lattice.BlockID{south}, false},
			{22, cell, []lattice.BlockID{east, south}, []lattice.BlockID{north, west}, true},
			{23, pos, nil, all, true},
		} {
			env.refuse = c.refuse
			b.OnMessage(env, west, via(kind.m(c.id, c.cell), self))
			var want []sent
			for _, to := range c.want {
				s := kind.to(to, c.id, c.cell)
				if !c.flood {
					s = routed(s)
				}
				want = append(want, s)
			}
			if got := env.take(); !slices.Equal(got, want) {
				t.Errorf("%s for %d refusing %v: sent %v, want %v", kind.name, c.id, c.refuse, got, want)
			}
		}
	}
	got := cfg.Counters.Snapshot()
	if got.DeadEndEntries != 2 || got.DeadEndReleases != 2 || got.DeadEndReports != 0 || got.DeadEndFloods != 4 {
		t.Errorf("dead-end floods: %d entries, %d releases, %d reports, %d in all; want 2, 2, 0, 4",
			got.DeadEndEntries, got.DeadEndReleases, got.DeadEndReports, got.DeadEndFloods)
	}
}

// TestWinnerActsOnItsEntryOnce: an unordered batch winner hops once on its
// GO entry, whether the entry arrives routed or as several copies of a
// dead end's flood, sends no SelectAck, and drops an entry of another
// round.
func TestWinnerActsOnItsEntryOnce(t *testing.T) {
	const round = 3
	const father, other, self lattice.BlockID = 2, 3, 20
	cell := geom.V(5, 5)
	for _, c := range []struct {
		name   string
		copies []msg.Message
		hops   int64
	}{
		{"routed", []msg.Message{via(entry(round, self, cell, 0), self)}, 1},
		{"flooded twice", []msg.Message{entry(round, self, cell, 0), entry(round, self, cell, 0)}, 1},
		{"stale routed", []msg.Message{via(entry(round-1, self, cell, 0), self)}, 0},
		{"stale flooded", []msg.Message{entry(round-1, self, cell, 0)}, 0},
	} {
		cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
		cfg.ParallelMoves = 4
		env := &scriptedEnv{id: self, cfg: cfg, pos: cell, nt: [geom.NumDirs]lattice.BlockID{
			geom.East: father, geom.North: other}}
		b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
		b.OnStart(env)
		b.OnMessage(env, father, msg.Message{Type: msg.TypeActivate, Round: round,
			Father: father, Son: self, ShortestDistance: msg.InfiniteDistance, IDShortest: father})
		env.take()
		for i, m := range c.copies {
			b.OnMessage(env, []lattice.BlockID{father, other}[i%2], m)
		}
		// A scripted block plans no move, so each hop attempt fails once.
		if got := cfg.Counters.MoveFailures.Load(); got != c.hops {
			t.Errorf("%s: %d hop attempts, want %d", c.name, got, c.hops)
		}
		if slices.ContainsFunc(env.take(), func(s sent) bool { return s.typ == msg.TypeSelectAck }) {
			t.Errorf("%s: a batch winner sent a SelectAck", c.name)
		}
	}
}
