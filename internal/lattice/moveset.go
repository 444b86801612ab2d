package lattice

import "repro/internal/geom"

// PlannedMove is one single-block displacement of an ordered wave: the Root's
// admission ladder validates candidate waves as a whole before sending the
// winners their GO entries, using the positions and destinations the
// candidates' bids carried.
type PlannedMove struct {
	From, To geom.Vec
}

// ValidateMoveSet checks an ordered list of planned displacements as one
// batched what-if against the current surface and returns the length of the
// longest valid prefix (len(moves) when the whole wave validates). Each step
// is checked under the cumulative occupancy overlay of the steps before it —
// the source must still be occupied, the destination in bounds and empty —
// and every intermediate surface must stay connected. Once the surface
// before a step is known to be one component (the step before it passed,
// or the first step's connectivity cache says so), the step's mover's 3×3
// ring is asked first, read through the overlay; otherwise, or when the
// ring cannot decide, the same bounded connectivity what-if the
// single-move path uses answers (connectedAfterMove, local to the bands the
// wave touches). Nothing mutates: the overlay is a pair of net-delta
// slices, exactly the shape connectedAfterMove consumes.
//
// The check is a planning aid, not the safety guard: every admitted hop is
// still validated against the live surface when it executes. A prefix that
// validates here can therefore be admitted optimistically even though
// unrelated motion may land in between.
func (s *Surface) ValidateMoveSet(moves []PlannedMove) int {
	if len(moves) == 0 {
		return 0
	}
	// Net delta relative to the real surface: removed ⊆ currently occupied,
	// added ⊆ currently empty — the invariant connectedAfterMove expects.
	removed := make([]geom.Vec, 0, len(moves))
	added := make([]geom.Vec, 0, len(moves))
	for k, mv := range moves {
		if mv.From == mv.To || !s.InBounds(mv.To) {
			return k
		}
		if !s.occAfter(mv.From, removed, added) || s.occAfter(mv.To, removed, added) {
			return k
		}
		// The prefix passed, so its surface is one component (induction);
		// the first step's rung 0 runs inside connectedAfter, on conn1.
		ring := k > 0 && s.ringJoins(mv.From, mv.To, removed, added)
		removed, added = deltaClear(removed, added, mv.From)
		removed, added = deltaSet(removed, added, mv.To)
		if ring && s.touchesAfter(mv.To, removed, added) {
			s.stats.WaveSteps.Ring++
		} else if !s.connectedAfter(removed, added, &s.stats.WaveSteps) {
			return k
		}
		if s.cavityAfterMove(removed, added, mv.To) {
			return k
		}
	}
	return len(moves)
}

// touchesAfter reports whether cell d has an occupied 4-neighbour under the
// delta removed/added.
func (s *Surface) touchesAfter(d geom.Vec, removed, added []geom.Vec) bool {
	for _, nb := range geom.Neighbors4(d) {
		if s.occAfter(nb, removed, added) {
			return true
		}
	}
	return false
}

// cavityScanCap bounds the cavity scan: a pocket counts as "enclosed" only
// if its whole empty region holds at most this many cells. Anything larger
// is treated as open space — real pockets pinched off by an interleaved
// batch round are a handful of cells, and the bound keeps the scan O(1) in
// surface size (the check runs on every candidate validation under
// ForbidCavity, so the common verdict "open sky" must exit fast).
const cavityScanCap = 64

// cavityAfterMove reports whether occupying dst (under the removed/added
// net-delta overlay, dst already folded in) pinches off an enclosed pocket
// of empty cells. The serial motion rules never enclose the empty region,
// but an admitted batch interleaves displacements the serial algorithm could
// not produce, and a pocket, once closed, is permanent: no rule application
// can reach into it, and a block routed along its perimeter orbits forever.
// The empty region is traversed 8-connected (the topological complement of
// the 4-connected block ensemble, and the convex-corner rules do carry
// blocks through diagonal gaps), so only genuinely sealed pockets reject.
// The scan runs on the surface's scratch buffers and allocates nothing once
// warm. A cell visited while scanning an earlier start's region stays
// visited for the later starts of the same call.
func (s *Surface) cavityAfterMove(removed, added []geom.Vec, dst geom.Vec) bool {
	s.stats.CavityScans++
	sc := &s.scratch
	if sc.cavMark == nil {
		sc.cavMark = make([]uint32, s.w*s.h)
	}
	if sc.cavEpoch++; sc.cavEpoch == 0 {
		// Wrapped: zero the stamps so stale marks cannot alias the new epoch.
		clear(sc.cavMark)
		sc.cavEpoch = 1
	}
	for _, start := range neighbors8(dst) {
		if !s.InBounds(start) || s.occAfter(start, removed, added) || !s.cavityVisit(start) {
			continue
		}
		region := 1 // cells of this start's region visited so far
		sc.cavTodo = append(sc.cavTodo[:0], start)
		open := false
	scan:
		for len(sc.cavTodo) > 0 {
			v := sc.cavTodo[len(sc.cavTodo)-1]
			sc.cavTodo = sc.cavTodo[:len(sc.cavTodo)-1]
			for _, nb := range neighbors8(v) {
				if !s.InBounds(nb) {
					// Off the surface edge: open sky.
					open = true
					break scan
				}
				if s.occAfter(nb, removed, added) || !s.cavityVisit(nb) {
					continue
				}
				if region++; region > cavityScanCap {
					open = true
					break scan
				}
				sc.cavTodo = append(sc.cavTodo, nb)
			}
		}
		if !open {
			return true
		}
	}
	return false
}

// cavityVisit marks the in-bounds cell v visited by the current cavity scan
// and reports whether this call marked it (false: already visited).
func (s *Surface) cavityVisit(v geom.Vec) bool {
	sc := &s.scratch
	i := v.Y*s.w + v.X
	if sc.cavMark[i] == sc.cavEpoch {
		return false
	}
	sc.cavMark[i] = sc.cavEpoch
	return true
}

// neighbors8 returns the eight cells surrounding v in deterministic order.
func neighbors8(v geom.Vec) [8]geom.Vec {
	return [8]geom.Vec{
		{X: v.X + 1, Y: v.Y}, {X: v.X + 1, Y: v.Y + 1},
		{X: v.X, Y: v.Y + 1}, {X: v.X - 1, Y: v.Y + 1},
		{X: v.X - 1, Y: v.Y}, {X: v.X - 1, Y: v.Y - 1},
		{X: v.X, Y: v.Y - 1}, {X: v.X + 1, Y: v.Y - 1},
	}
}

// deltaClear folds "cell v becomes empty" into the net delta: a cell this
// wave previously filled drops out of added, anything else (occupied on the
// real surface) joins removed.
func deltaClear(removed, added []geom.Vec, v geom.Vec) ([]geom.Vec, []geom.Vec) {
	for i, a := range added {
		if a == v {
			added[i] = added[len(added)-1]
			return removed, added[:len(added)-1]
		}
	}
	return append(removed, v), added
}

// deltaSet folds "cell v becomes occupied" into the net delta: a cell this
// wave previously vacated drops out of removed (the conveyor case — a later
// mover re-fills an earlier mover's source), anything else joins added.
func deltaSet(removed, added []geom.Vec, v geom.Vec) ([]geom.Vec, []geom.Vec) {
	for i, r := range removed {
		if r == v {
			removed[i] = removed[len(removed)-1]
			return removed[:len(removed)-1], added
		}
	}
	return removed, append(added, v)
}
