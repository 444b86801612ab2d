package lattice

import (
	"errors"

	"repro/internal/geom"
)

// The band layout: every surface's connectivity cache (§VI scale).
//
// shardedConn partitions the surface into fixed-width column bands, each
// owning its own lazy connCore, and composes global connectivity through the
// boundary contraction graph (contraction.go): one node per band-local
// component, one edge per adjacent occupied cell pair across an internal
// band boundary. NewSurface lays out ceil(w/BandWidth) equal bands, so a
// surface up to BandWidth columns wide holds one full-width band, which is
// exact on its own; EnableSharding(n) overrides the layout with n bands. One
// band over 10^6–10^7 modules would be the last O(N) cost on the event path:
// any occupancy mutation invalidates it and the next constrained validation
// pays a full-surface Tarjan rebuild (~100ms at 2e6 modules in BENCH_10).
// With bands a mutation invalidates one band (plus the two boundary edge
// lists its labels feed), and the next rebuild costs O(bandWidth x H) — a
// constant, since the band width is bounded — plus a composition that
// rescans only the dirty boundaries.
//
// Queries climb a ladder of three exact rungs, cheapest first:
//
//  0. the mover's 3×3 ring (ring.go), O(1), and only while conn1 says the
//     occupancy is one component: a single displacement whose mover's side
//     blocks lie in one run of its ring, and whose destination touches a
//     block, keeps the ensemble connected; a cut-vertex query whose side
//     blocks lie in one run is answered "not a cut vertex". Neither reads a
//     band core, so a "yes" needs no rebuild after a motion.
//  1. a band core's articulation bit, O(window): a cell that is not a
//     band-local articulation point and has no occupied neighbour across a
//     band boundary can vacate without changing any band's component
//     structure or any boundary edge, so the global verdict follows from the
//     destination's neighbourhood alone. On one band the core is the whole
//     surface, so its bit answers a cut-vertex query either way.
//  2. the what-if overlay (compose), O(bandWidth x H + boundary scans): a
//     what-if connCore per band the delta touches, composed with every other
//     band's cached labels and boundary edges. Exact for every input,
//     including articulation movers, multi-cell deltas and fragmented
//     surfaces; on one band it is a what-if Tarjan pass over the surface.
//
// Rungs 0 and 1 only return when their verdict is exact, otherwise they fall
// through to the next rung.
type shardedConn struct {
	bw     int // nominal band width; the last band may be narrower
	shards []shardState
	edges  []boundaryEdges // edges[i] spans bands i and i+1
	comps  int             // global component count, composed by the last rebuild
	// valid reports that every band core, every boundary edge list and comps
	// match the current occupancy: a warm ensure is one branch, and a
	// rolled-back veto can restore the whole cache at once.
	valid bool
	// conn1 reports that the occupancy is one 4-connected component, which
	// rung 0 needs. A rebuild that counts one component sets it, and every
	// occupancy mutation clears it. The motions that are validated
	// connected (Apply and MoveTeleport under RequireConnectivity) put it
	// back as it was before them, and so do the rollbacks that restore the
	// occupancy exactly (a veto's, a failed execution's).
	conn1 bool

	// compose's scratch, reused across queries: what-if band cores, the core
	// each band composes, an overlaid boundary's edges, and the union-find
	// over band-local components with each band's first slot.
	wc    []connCore
	cores []*connCore
	wedge boundaryEdges
	uf    []int32
	base  []int32
	owned [1]geom.Vec // single-cell removed buffer for isArticulation
}

// shardState is one column band: a lazily rebuilt connCore plus its validity.
type shardState struct {
	valid bool
	core  connCore
}

// BandWidth is the widest band NewSurface lays out. At this width a 2e6-module
// rebuild costs one eighteenth of the one-band rebuild (BENCH_10's
// shard_rebuild_2e6 vs mono_rebuild_2e6), while every registry scenario at
// its default parameters stays on one band.
const BandWidth = 150

// newShardedConn lays out ceil(w/bands)-wide column bands over s. The caller
// (NewSurface, EnableSharding, Clone) owns installing it on the surface.
func newShardedConn(s *Surface, bands int) *shardedConn {
	bands = min(max(bands, 1), s.w)
	bw := (s.w + bands - 1) / bands
	ns := (s.w + bw - 1) / bw
	sc := &shardedConn{bw: bw, shards: make([]shardState, ns), edges: make([]boundaryEdges, ns-1)}
	for i := range sc.shards {
		c := &sc.shards[i].core
		c.x0 = i * bw
		c.x1 = min((i+1)*bw, s.w)
	}
	return sc
}

// EnableSharding replaces the surface's connectivity cache with `bands`
// column bands composed through the boundary contraction graph, overriding
// the layout NewSurface picked from the width. The band count changes only
// where connectivity queries are answered from — never their verdicts (the
// property tests pin every band count to the DFS oracle) — so it is safe to
// change on any surface at any time. Tests that compare band counts and the
// one-band reference kernels call it; no run needs to.
func (s *Surface) EnableSharding(bands int) error {
	if bands < 1 {
		return errors.New("lattice: sharding needs at least 1 band")
	}
	s.shconn = newShardedConn(s, bands)
	return nil
}

// ShardCount returns the number of column bands.
func (s *Surface) ShardCount() int { return len(s.shconn.shards) }

// shardOf maps a column to its band index. One band skips the division:
// rung 1 and every setOcc/clearOcc go through here.
func (sc *shardedConn) shardOf(x int) int {
	if len(sc.shards) == 1 {
		return 0
	}
	return x / sc.bw
}

// invalidateCols drops every band cache overlapping columns [x0, x1], and
// the boundary edge lists derived from their labels; every occupancy
// mutation calls it.
func (sc *shardedConn) invalidateCols(x0, x1 int) {
	sc.valid, sc.conn1 = false, false
	for si := sc.shardOf(x0); si <= sc.shardOf(x1); si++ {
		sc.shards[si].valid = false
		if si > 0 {
			sc.edges[si-1].valid = false
		}
		if si < len(sc.edges) {
			sc.edges[si].valid = false
		}
	}
}

// ensure rebuilds every invalidated band core and boundary edge list, then
// composes the global component count. Cost is proportional to the dirty
// bands only; a warm cache costs one branch.
func (sc *shardedConn) ensure(s *Surface) {
	if !sc.valid {
		sc.rebuild(s)
	}
}

// rebuild is ensure's cold path: the cached count is the composition of an
// empty delta.
func (sc *shardedConn) rebuild(s *Surface) {
	for i := range sc.shards {
		sh := &sc.shards[i]
		if !sh.valid {
			sh.core.rebuild(s)
			sh.valid = true
		}
	}
	for i := range sc.edges {
		if be := &sc.edges[i]; !be.valid {
			be.scan(s, &sc.shards[i].core, &sc.shards[i+1].core, nil, nil)
			be.valid = true
		}
	}
	sc.comps = sc.compose(s, nil, nil)
	sc.valid = true
	sc.conn1 = sc.comps == 1
}

// revalidate marks every band core, edge list and the composed count valid
// again. Only sound when the occupancy is exactly the one they were last
// built from: the in-place vetoes (apply.go) call it after rolling a motion
// back, when the cache was warm before and nothing rebuilt it since.
func (sc *shardedConn) revalidate() {
	for i := range sc.shards {
		sc.shards[i].valid = true
	}
	for i := range sc.edges {
		sc.edges[i].valid = true
	}
	sc.valid = true
}

// bandLocal reports whether vacating the occupied cell v of core leaves
// every other band and every boundary edge as they are, and v's band
// component in one piece: v is not a band-local articulation point and has
// no occupied 4-neighbour across a band boundary.
func (s *Surface) bandLocal(core *connCore, v geom.Vec) bool {
	return !core.isArtic(v) &&
		!(v.X == core.x0 && v.X > 0 && s.Occupied(geom.V(v.X-1, v.Y))) &&
		!(v.X == core.x1-1 && v.X+1 < s.w && s.Occupied(geom.V(v.X+1, v.Y)))
}

// connectedAfterMove is the ladder behind Surface.connectedAfterMove: does
// the occupancy stay one 4-connected component after the delta? The caller
// has already handled the <= 1 block degenerate case. n counts the rung that
// answered.
func (sc *shardedConn) connectedAfterMove(s *Surface, removed, added []geom.Vec, n *Rungs) bool {
	single := len(removed) == 1 && len(added) == 1
	if single && sc.conn1 {
		if u, d := removed[0], added[0]; s.ringJoins(u, d, nil, nil) && s.touchesBlock(d, u) {
			// Rung 0: exact on a connected occupancy, and it reads no band
			// core.
			n.Ring++
			return true
		}
	}
	sc.ensure(s)
	if single && sc.comps == 1 {
		// Rung 1: the remainder is one global component when u leaves, so
		// the move is safe iff the destination touches it.
		if u, d := removed[0], added[0]; s.bandLocal(&sc.shards[sc.shardOf(u.X)].core, u) {
			n.Band++
			return s.touchesBlock(d, u)
		}
	}
	// Rung 2: the exact what-if overlay over the affected bands.
	n.Overlay++
	return sc.compose(s, removed, added) <= 1
}

// isArticulation is the ladder behind Surface.IsArticulation: would
// removing the occupant of v alone split its component? n counts the rung
// that answered.
func (sc *shardedConn) isArticulation(s *Surface, v geom.Vec, n *Rungs) bool {
	if sc.conn1 && s.ringNotCut(v) {
		// Rung 0: exact on a connected occupancy, and it reads no band core.
		n.Ring++
		return false
	}
	sc.ensure(s)
	core := &sc.shards[sc.shardOf(v.X)].core
	if len(sc.shards) == 1 || s.bandLocal(core, v) {
		// Rung 1: on one band the articulation bit is the global verdict;
		// on more, a band-local v splits nothing.
		n.Band++
		return core.isArtic(v)
	}
	// Rung 2: v splits its component iff the global component count rises
	// when v is vacated (a single-cell component merely disappears).
	n.Overlay++
	sc.owned[0] = v
	return sc.compose(s, sc.owned[:1], nil) > sc.comps
}
