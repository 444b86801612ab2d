package lattice

import "repro/internal/geom"

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
// constant, since the band width is bounded — plus a contraction recompute
// that touches only the dirty boundaries.
//
// Queries climb an escalation ladder, cheapest exact rung first:
//
//  0. the mover's 3×3 ring (ring.go), O(1), and only while conn1 says the
//     occupancy is one component: a single displacement whose mover's side
//     blocks lie in one run of its ring, and whose destination touches a
//     block, keeps the ensemble connected; a cut-vertex query whose side
//     blocks lie in one run is answered "not a cut vertex". Neither reads a
//     band core, so a "yes" needs no rebuild after a motion.
//  1. band-local fast path, O(window): an interior cell (no cross-band
//     edges) that is not a band-local articulation point can vacate without
//     changing any band's component structure or any boundary edge, so the
//     global verdict follows from the destination's neighbourhood alone.
//     Likewise a band-local articulation mover whose destination re-covers
//     every separated piece (connCore.articMoveFast) is exactly safe. On one
//     band every cell is interior and the core is the whole surface, so
//     articMoveFast's false verdict and the band's articulation bit are
//     exact as well and answer directly.
//  2. contraction graph, O(nodes + edges): occupancy-preserving deltas and
//     component counting answer from the cached union-find.
//  3. bounded overlay rebuild (overlayComps), O(bandWidth x H + boundary
//     scans): a what-if connCore per band actually touched by the delta,
//     composed with every other band's cached labels. Exact for every input,
//     including multi-cell deltas and fragmented surfaces; on one band it is
//     a what-if Tarjan pass over the surface.
//
// The ladder never answers from a heuristic: rungs 0–2 only return when
// their verdict is exact, otherwise they fall through to the next rung.
type shardedConn struct {
	bw     int // nominal band width; the last band may be narrower
	shards []shardState
	contr  contraction
	// valid reports that every band core, every boundary edge list and the
	// contraction graph match the current occupancy: a warm ensure is one
	// branch, and a rolled-back veto can restore the whole cache at once.
	valid bool
	// conn1 reports that the occupancy is one 4-connected component, which
	// rung 0 needs. A rebuild that counts one component sets it, and every
	// occupancy mutation clears it. The motions that are validated
	// connected (Apply and MoveTeleport under RequireConnectivity) put it
	// back as it was before them, and so do the rollbacks that restore the
	// occupancy exactly (a veto's, a failed execution's).
	conn1 bool

	// Escalation scratch: what-if band cores and the union-find arrays of
	// overlayComps, reused across queries.
	wc    []connCore
	aff   []int
	wnb   []int32
	wuf   []int32
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
// its default parameters stays on one band, where rung 1 answers exactly.
const BandWidth = 150

// newShardedConn lays out ceil(w/bands)-wide column bands over s. The caller
// (NewSurface, EnableSharding, Clone) owns installing it on the surface.
func newShardedConn(s *Surface, bands int) *shardedConn {
	if bands < 1 {
		bands = 1
	}
	if bands > s.w {
		bands = s.w
	}
	bw := (s.w + bands - 1) / bands
	ns := (s.w + bw - 1) / bw
	sc := &shardedConn{bw: bw, shards: make([]shardState, ns)}
	for i := range sc.shards {
		c := &sc.shards[i].core
		c.x0 = i * bw
		c.x1 = min((i+1)*bw, s.w)
	}
	sc.contr.edges = make([]boundaryEdges, max(ns-1, 0))
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
		return errInvalidBands(bands)
	}
	s.shconn = newShardedConn(s, bands)
	return nil
}

func errInvalidBands(n int) error {
	return &shardConfigError{n}
}

type shardConfigError struct{ bands int }

func (e *shardConfigError) Error() string {
	return "lattice: sharding needs at least 1 band"
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

// invalidateCol drops the band cache owning column x, and the boundary edge
// lists derived from its labels.
func (sc *shardedConn) invalidateCol(x int) {
	si := sc.shardOf(x)
	sc.valid, sc.conn1 = false, false
	sc.shards[si].valid = false
	if si > 0 {
		sc.contr.edges[si-1].valid = false
	}
	if si < len(sc.shards)-1 {
		sc.contr.edges[si].valid = false
	}
}

// invalidateCols drops every band cache overlapping columns [x0, x1].
func (sc *shardedConn) invalidateCols(x0, x1 int) {
	sc.valid, sc.conn1 = false, false
	for si := sc.shardOf(x0); si <= sc.shardOf(x1); si++ {
		sc.shards[si].valid = false
		if si > 0 {
			sc.contr.edges[si-1].valid = false
		}
		if si < len(sc.shards)-1 {
			sc.contr.edges[si].valid = false
		}
	}
}

// ensure rebuilds every invalidated band core and then the contraction
// graph. Cost is proportional to the dirty bands only; a warm cache costs
// one branch.
func (sc *shardedConn) ensure(s *Surface) {
	if !sc.valid {
		sc.rebuild(s)
	}
}

// rebuild is ensure's cold path.
func (sc *shardedConn) rebuild(s *Surface) {
	for i := range sc.shards {
		sh := &sc.shards[i]
		if !sh.valid {
			sh.core.rebuild(s)
			sh.valid = true
		}
	}
	sc.contr.rebuild(s, sc)
	sc.valid = true
	sc.conn1 = sc.contr.comps == 1
}

// revalidate marks every band core, edge list and the contraction graph
// valid again. Only sound when the occupancy is exactly the one they were
// last built from: the in-place vetoes (apply.go) call it after rolling a
// motion back, when the cache was warm before and nothing rebuilt it since.
func (sc *shardedConn) revalidate() {
	for i := range sc.shards {
		sc.shards[i].valid = true
	}
	for i := range sc.contr.edges {
		sc.contr.edges[i].valid = true
	}
	sc.valid = true
}

// hasCrossEdge reports whether cell v sits on an internal band boundary
// column of core (and therefore may carry edges into the neighbouring band).
func hasCrossEdge(s *Surface, core *connCore, v geom.Vec) bool {
	return (v.X == core.x0 && core.x0 > 0) || (v.X == core.x1-1 && core.x1 < s.w)
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
	if len(removed) == 0 && len(added) == 0 {
		// Pure occupancy rotation: connectivity is unchanged.
		n.Contraction++
		return sc.contr.comps <= 1
	}
	if sc.contr.comps == 1 && single {
		u, d := removed[0], added[0]
		core := &sc.shards[sc.shardOf(u.X)].core
		if !hasCrossEdge(s, core, u) {
			// Rung 1: u carries no cross-band edges, so its removal can only
			// reshape its own band's components.
			if !core.isArtic(u) {
				// The band component survives u's removal intact and every
				// boundary edge is preserved, so the remainder is one global
				// component; the move is safe iff the destination touches it.
				n.Band++
				return s.touchesBlock(d, u)
			}
			if d.X >= core.x0 && d.X < core.x1 {
				// Band-local articulation mover. True means d re-covers every
				// separated piece: the band component survives as one piece
				// with its boundary contacts intact (u was interior), and d
				// can only add edges. On one band the core is the whole
				// surface, so false is exact too; with more bands it could
				// miss reconnection through a neighbouring band, so it falls
				// through to the overlay.
				if ok := core.articMoveFast(s, u, d); ok || len(sc.shards) == 1 {
					n.Band++
					return ok
				}
			}
		}
	}
	// Rung 3: bounded exact overlay over the affected bands.
	n.Overlay++
	return sc.overlayComps(s, removed, added) <= 1
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
	if len(sc.shards) == 1 {
		// The band is the whole surface: its articulation bit is exact.
		n.Band++
		return core.isArtic(v)
	}
	if !core.isArtic(v) {
		if !hasCrossEdge(s, core, v) {
			// Interior non-articulation cell: its band component survives its
			// removal and no boundary edge is lost. Exact false.
			n.Band++
			return false
		}
		// Boundary cell: removal also deletes its cross-band edges. If there
		// are none occupied, the interior argument applies.
		crossL := v.X == core.x0 && core.x0 > 0 && s.Occupied(geom.V(v.X-1, v.Y))
		crossR := v.X == core.x1-1 && core.x1 < s.w && s.Occupied(geom.V(v.X+1, v.Y))
		if !crossL && !crossR {
			n.Band++
			return false
		}
	}
	// Exact: v splits its component iff the global component count rises
	// when v is vacated (a single-cell component merely disappears).
	n.Overlay++
	sc.owned[0] = v
	return sc.overlayComps(s, sc.owned[:1], nil) > sc.contr.comps
}

// overlayComps returns the exact global component count of the occupancy
// with the delta overlaid, without mutating the surface. Each band actually
// touched by a delta cell is re-analysed by a what-if connCore (reading
// through the overlay); every other band contributes its cached labels and
// cached boundary edges. Cost: O(bandWidth x H) per affected band plus an
// O(H) scan per boundary adjacent to one — bounded by the delta footprint,
// never by the surface.
func (sc *shardedConn) overlayComps(s *Surface, removed, added []geom.Vec) int {
	// Collect the distinct affected bands.
	sc.aff = sc.aff[:0]
	mark := func(x int) {
		si := sc.shardOf(x)
		for _, a := range sc.aff {
			if a == si {
				return
			}
		}
		sc.aff = append(sc.aff, si)
	}
	for _, v := range removed {
		mark(v.X)
	}
	for _, v := range added {
		mark(v.X)
	}
	affIdx := func(si int) int {
		for k, a := range sc.aff {
			if a == si {
				return k
			}
		}
		return -1
	}
	// What-if rebuild of each affected band under the overlay.
	if cap(sc.wc) < len(sc.aff) {
		grown := make([]connCore, len(sc.aff))
		copy(grown, sc.wc)
		sc.wc = grown
	}
	sc.wc = sc.wc[:len(sc.aff)]
	for k, si := range sc.aff {
		src := &sc.shards[si].core
		wc := &sc.wc[k]
		wc.x0, wc.x1 = src.x0, src.x1
		wc.ovR, wc.ovA = removed, added
		wc.rebuild(s)
		wc.ovR, wc.ovA = nil, nil
	}
	coreFor := func(si int) *connCore {
		if k := affIdx(si); k >= 0 {
			return &sc.wc[k]
		}
		return &sc.shards[si].core
	}
	// Union-find over all band-local components (what-if counts for the
	// affected bands, cached counts elsewhere).
	ns := len(sc.shards)
	if cap(sc.wnb) < ns+1 {
		sc.wnb = make([]int32, ns+1)
	}
	sc.wnb = sc.wnb[:ns+1]
	total := int32(0)
	for i := 0; i < ns; i++ {
		sc.wnb[i] = total
		total += int32(coreFor(i).comps)
	}
	sc.wnb[ns] = total
	if cap(sc.wuf) < int(total) {
		sc.wuf = make([]int32, total)
	}
	sc.wuf = sc.wuf[:total]
	for i := range sc.wuf {
		sc.wuf[i] = int32(i)
	}
	comps := int(total)
	for bi := 0; bi < ns-1; bi++ {
		l, r := coreFor(bi), coreFor(bi+1)
		lk, rk := affIdx(bi), affIdx(bi+1)
		if lk < 0 && rk < 0 {
			// Neither side touched: the cached edge list still applies.
			for _, p := range sc.contr.edges[bi].pairs {
				if ufUnion(sc.wuf, sc.wnb[bi]+p.a, sc.wnb[bi+1]+p.b) {
					comps--
				}
			}
			continue
		}
		xl, xr := l.x1-1, r.x0
		for y := 0; y < s.h; y++ {
			vl, vr := geom.V(xl, y), geom.V(xr, y)
			if s.occAfter(vl, removed, added) && s.occAfter(vr, removed, added) {
				if ufUnion(sc.wuf, sc.wnb[bi]+l.compAt(vl), sc.wnb[bi+1]+r.compAt(vr)) {
					comps--
				}
			}
		}
	}
	return comps
}
