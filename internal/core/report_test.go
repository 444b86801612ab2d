package core

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
)

// mesh hosts scripted blocks on fixed cells and delivers their sends in
// FIFO order. No block moves and none runs OnStart, so a test sets up the
// Root's round by hand.
type mesh struct {
	envs  map[lattice.BlockID]*scriptedEnv
	codes map[lattice.BlockID]*BlockCode
	queue []delivery
}

type delivery struct {
	from, to lattice.BlockID
	m        msg.Message
}

func newMesh(cfg Config, cells map[lattice.BlockID]geom.Vec) *mesh {
	at := make(map[geom.Vec]lattice.BlockID, len(cells))
	for id, c := range cells {
		at[c] = id
	}
	ms := &mesh{envs: map[lattice.BlockID]*scriptedEnv{}, codes: map[lattice.BlockID]*BlockCode{}}
	factory := newObservedFactory(cfg, nil, nil)
	for id, c := range cells {
		env := &scriptedEnv{id: id, cfg: cfg, pos: c}
		for _, d := range geom.Dirs() {
			env.nt[d] = at[c.Add(d.Vec())]
		}
		env.deliver = func(to lattice.BlockID, m msg.Message) {
			ms.queue = append(ms.queue, delivery{from: id, to: to, m: m})
		}
		ms.envs[id] = env
		ms.codes[id] = factory(id).(*BlockCode)
	}
	return ms
}

// runUntil delivers queued messages until done holds, and reports false if
// the queue ran dry first.
func (ms *mesh) runUntil(done func() bool) bool {
	for !done() {
		if len(ms.queue) == 0 {
			return false
		}
		d := ms.queue[0]
		ms.queue = ms.queue[1:]
		ms.codes[d.to].OnMessage(ms.envs[d.to], d.from, d.m)
	}
	return true
}

// TestDeadEndReportReachesRootByFlood routes a report into a dead end from
// which only a flood reaches the Root, and only back through the block that
// relayed the routed copy:
//
//	y2:  A  B  C      C reports: C -> B -> A (the cells below A and B are
//	y1:  .  .  D      empty), A floods, and the flood goes A -> B -> C ->
//	y0:  R  E  F      D -> F -> E -> R.
func TestDeadEndReportReachesRootByFlood(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	const r, e, f, d, c, b, a lattice.BlockID = 1, 2, 3, 4, 5, 6, 7
	ms := newMesh(cfg, map[lattice.BlockID]geom.Vec{
		r: geom.V(0, 0), e: geom.V(1, 0), f: geom.V(2, 0), d: geom.V(2, 1),
		c: geom.V(2, 2), b: geom.V(1, 2), a: geom.V(0, 2),
	})
	root := ms.codes[r]
	root.isRoot, root.round, root.moveSet, root.moveWaves = true, 3, []lattice.BlockID{c}, []uint8{0}
	mover := ms.codes[c]
	mover.round = 3
	mover.reportOutcome(ms.envs[c], geom.V(2, 3), geom.V(2, 2), true)

	if got, want := ms.envs[c].take(), []sent{routed(reportTo(b, c))}; !slices.Equal(got, want) {
		t.Fatalf("mover sent %v, want %v (west first on a tie)", got, want)
	}
	if !ms.runUntil(func() bool { return root.round == 4 }) {
		t.Fatal("the report never reached the Root: the flood died behind the routed path")
	}
	if got, want := ms.envs[b].take(), []sent{routed(reportTo(a, c)), reportTo(c, c)}; !slices.Equal(got, want) {
		t.Errorf("B sent %v, want the routed copy to A, then the flood to C", got)
	}
	if got := cfg.Counters.Snapshot(); got.DeadEndReports != 1 || got.DeadEndFloods != 1 {
		t.Errorf("dead-end floods: %d reports of %d, want 1 of 1", got.DeadEndReports, got.DeadEndFloods)
	}
	// The next election carries the round's one successful hop.
	if got, want := ms.envs[r].take(), []sent{{to: e, typ: msg.TypeActivate, hops: 1}}; !slices.Equal(got, want) {
		t.Errorf("Root sent %v, want %v", got, want)
	}
}

// TestReportTriesNextNearerNeighbourThenFloods: a relay hands a report to
// the side along the larger gap to I, falls back to the other nearer side
// when that port refuses, and floods when both refuse.
func TestReportTriesNextNearerNeighbourThenFloods(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	const east, north, west, south, self, mover lattice.BlockID = 2, 3, 4, 5, 7, 9
	// I lies 5 columns west and 3 rows south of (5,3).
	env := &scriptedEnv{id: self, cfg: cfg, pos: geom.V(5, 3), nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east, geom.North: north, geom.West: west, geom.South: south}}
	b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
	b.OnStart(env)
	report := msg.Message{Type: msg.TypeMoveDone, Round: 3, Mover: mover, Son: self, Success: true}
	for _, c := range []struct {
		refuse []lattice.BlockID
		want   []sent
	}{
		{nil, []sent{routed(reportTo(west, mover))}},
		{[]lattice.BlockID{west}, []sent{routed(reportTo(south, mover))}},
		{[]lattice.BlockID{west, south}, []sent{reportTo(east, mover), reportTo(north, mover)}},
	} {
		env.refuse = c.refuse
		b.OnMessage(env, east, report)
		if got := env.take(); !slices.Equal(got, c.want) {
			t.Errorf("refusing %v: sent %v, want %v", c.refuse, got, c.want)
		}
	}
	if got := cfg.Counters.Snapshot(); got.DeadEndReports != 1 || got.DeadEndFloods != 1 {
		t.Errorf("dead-end floods: %d reports of %d, want 1 of 1", got.DeadEndReports, got.DeadEndFloods)
	}
}

// TestRootReleasesWaveMembersInStampOrder: the Root routes a wave member's
// release towards the member's bid cell only once every lower-stamped
// winner has reported, releases each member once, counts each winner once
// however many copies of its report arrive, and carries the round's
// successful hops on the next Activate.
func TestRootReleasesWaveMembersInStampOrder(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
	cfg.ParallelMoves = 4
	const root, east, north lattice.BlockID = 1, 2, 3
	env := &scriptedEnv{id: root, cfg: cfg, pos: cfg.Input, nt: [geom.NumDirs]lattice.BlockID{
		geom.East: east, geom.North: north}}
	b := newObservedFactory(cfg, nil, nil)(root).(*BlockCode)
	b.isRoot, b.round = true, 3
	b.moveSet = []lattice.BlockID{20, 21, 22, 23}
	b.moveWaves = []uint8{0, 0, 1, 2}
	// 22 bids east of I's diagonal and 23 north of it.
	c22, c23 := geom.V(6, 2), geom.V(1, 7)
	b.moveCells = []msg.Cell{msg.CellOf(geom.V(3, 3)), msg.CellOf(geom.V(4, 3)), msg.CellOf(c22), msg.CellOf(c23)}
	report := func(mover lattice.BlockID, success bool, son lattice.BlockID) msg.Message {
		return msg.Message{Type: msg.TypeMoveDone, Round: 3, Mover: mover, Success: success, Son: son}
	}
	steps := []struct {
		what string
		m    msg.Message
		want []sent
	}{
		{"the first unordered winner", report(20, true, root), nil},
		{"the second unordered winner", report(21, false, root),
			[]sent{routed(releaseTo(east, 22, c22))}},
		{"a flooded copy of a counted report", report(20, true, lattice.None), nil},
		{"stamp 1", report(22, true, root), []sent{routed(releaseTo(north, 23, c23))}},
		{"a second copy of stamp 1's report", report(22, true, lattice.None), nil},
		{"stamp 2", report(23, true, lattice.None), []sent{
			{to: east, typ: msg.TypeActivate, hops: 3}, {to: north, typ: msg.TypeActivate, hops: 3}}},
	}
	for _, s := range steps {
		b.OnMessage(env, east, s.m)
		if got := env.take(); !slices.Equal(got, s.want) {
			t.Errorf("after %s: Root sent %v, want %v", s.what, got, s.want)
		}
	}
	if b.round != 4 {
		t.Errorf("Root is in round %d, want 4", b.round)
	}
}

// TestWaveMemberHopsOnlyOnItsRelease: an ordered wave member holds its hop
// until it holds both its GO entry and its own release, in either order,
// and hops exactly once; a release for another member passes through it.
func TestWaveMemberHopsOnlyOnItsRelease(t *testing.T) {
	const round = 3
	const father, other, self lattice.BlockID = 2, 3, 22
	cell := geom.V(5, 5)
	goEntry := via(entry(round, self, cell, 2), self)
	mine := via(release(round, self, cell), self)
	// member engages in the round; its hop attempts show as move failures,
	// since a scripted block plans no move.
	member := func() (*BlockCode, *scriptedEnv) {
		cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
		cfg.ParallelMoves = 4
		env := &scriptedEnv{id: self, cfg: cfg, pos: cell, nt: [geom.NumDirs]lattice.BlockID{
			geom.East: father, geom.North: other}}
		b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
		b.OnStart(env)
		b.OnMessage(env, father, msg.Message{Type: msg.TypeActivate, Round: round,
			Father: father, Son: self, ShortestDistance: msg.InfiniteDistance, IDShortest: father})
		env.take()
		return b, env
	}
	hops := func(b *BlockCode) int64 { return b.sh.cfg.Counters.MoveFailures.Load() }

	b, env := member()
	b.OnMessage(env, father, goEntry)
	// 21's release is routed through this block, on to 21's cell north.
	b.OnMessage(env, father, via(release(round, 21, geom.V(5, 9)), self))
	if got, want := env.take(), []sent{routed(releaseTo(other, 21, geom.V(5, 9)))}; !slices.Equal(got, want) {
		t.Errorf("GO first: sent %v before its release, want only %v relayed", got, want)
	}
	if hops(b) != 0 {
		t.Fatal("GO first: the member hopped before its release")
	}
	b.OnMessage(env, other, mine)
	b.OnMessage(env, other, release(round, self, cell)) // a flooded copy too
	if got := hops(b); got != 1 {
		t.Errorf("GO first: the member hopped %d times on its release, want 1", got)
	}

	b, env = member()
	b.OnMessage(env, other, mine)
	if hops(b) != 0 {
		t.Fatal("release first: the member hopped without its GO entry")
	}
	b.OnMessage(env, father, goEntry)
	if got := hops(b); got != 1 {
		t.Errorf("release first: the member hopped %d times when its entry arrived, want 1", got)
	}
	if slices.ContainsFunc(env.take(), func(s sent) bool { return s.typ == msg.TypeSelectAck }) {
		t.Error("a batch winner sent a SelectAck")
	}
}

// TestActivateLiftsSuppressionOncePerHopBeforeBid: an engaging block lifts
// its suppression backoff once per successful hop the Activate reports, and
// only then bids — so it plans a move exactly when the lifts cleared the
// backoff. A serial run clears it on any success; a batch block deep in a
// failure streak steps it down once per success.
func TestActivateLiftsSuppressionOncePerHopBeforeBid(t *testing.T) {
	for _, c := range []struct {
		k, streak, suppressed int
		hops                  uint8
		plans                 bool
		left                  int
	}{
		{k: 1, streak: 1, suppressed: 3, hops: 0, plans: false, left: 2},
		{k: 1, streak: 1, suppressed: 3, hops: 1, plans: true, left: 0},
		{k: 4, streak: 3, suppressed: 5, hops: 3, plans: false, left: 1},
		{k: 4, streak: 3, suppressed: 5, hops: 5, plans: true, left: 0},
	} {
		cfg := NewConfig(geom.V(0, 0), geom.V(0, 9))
		cfg.ParallelMoves = c.k
		const father, self lattice.BlockID = 2, 7
		env := &scriptedEnv{id: self, cfg: cfg, pos: geom.V(5, 5),
			nt: [geom.NumDirs]lattice.BlockID{geom.East: father}}
		b := newObservedFactory(cfg, nil, nil)(self).(*BlockCode)
		b.OnStart(env)
		b.suppressedFor, b.hopFailStreak = c.suppressed, c.streak
		before := cfg.Counters.CandidateEnumerations.Load()
		b.OnMessage(env, father, msg.Message{Type: msg.TypeActivate, Round: 1, Hops: c.hops,
			Father: father, Son: self, ShortestDistance: msg.InfiniteDistance, IDShortest: father})
		planned := cfg.Counters.CandidateEnumerations.Load() > before
		if planned != c.plans || b.suppressedFor != c.left {
			t.Errorf("k=%d streak=%d backoff=%d, %d hops: planned=%t backoff left %d, want planned=%t left %d",
				c.k, c.streak, c.suppressed, c.hops, planned, b.suppressedFor, c.plans, c.left)
		}
	}
}
