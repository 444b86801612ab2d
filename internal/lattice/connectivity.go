package lattice

import (
	"math/bits"

	"repro/internal/geom"
)

// Incremental connectivity (Remark 1 fast path).
//
// The reconfiguration algorithm validates every candidate motion against the
// connectivity invariant: a separated block "cannot move anymore ... and thus
// cannot participate anymore to the distributed application" (Remark 1), so
// motions after which the ensemble is no longer one 4-connected component are
// prohibited. The reference oracle for that question is Clone() + execute +
// Connected() — a full surface copy and a map-based DFS per candidate, the
// one remaining O(N)+allocation cost on the validation hot path after the
// bitboard compilation of the matrix overlap.
//
// This file replaces the oracle on the hot path with an incrementally
// maintained structure over the existing row bitsets:
//
//   - connCore is one Tarjan articulation pass over a column band [x0, x1):
//     component count, component labels and an articulation-point bitset,
//     in flat int32 scratch with no per-node allocation. Every surface keeps
//     its cores in one band layout (shardedConn, shard.go): ceil(w/BandWidth)
//     column bands, one on a surface at most BandWidth wide, composed
//     through the boundary contraction graph (contraction.go). A core is
//     rebuilt lazily and invalidated by every setOcc/clearOcc in its
//     columns. Because a round of the algorithm validates many candidates
//     between consecutive surface mutations, the rebuild amortises to a
//     small constant per validation.
//
//   - connectedAfterMove answers "is the occupancy still one 4-connected
//     component after simultaneously clearing `removed` and filling `added`
//     cells?" by climbing the band layout's three-rung ladder (shard.go).
//     For the common single-displacement case (every slide, every carry and
//     every teleport nets one cell removed and one added) rung 0 asks the
//     mover's 3×3 ring (ring.go) while the occupancy is known to be one
//     component: if the mover's side blocks lie in one run of its ring and
//     the destination touches a block, the move is safe, with no band core
//     read and so no rebuild after the last motion. Otherwise rung 1 is
//     still O(window) on a rebuilt core: if the vacated cell is not an
//     articulation point the remainder is connected, and the destination
//     only needs any remaining 4-neighbour.
//
//   - articulation movers, multi-cell deltas and fault-injected
//     already-disconnected surfaces take rung 2, the what-if overlay
//     (compose): a Tarjan pass over the bands the delta touches with the
//     delta overlaid, run entirely on reusable scratch (no Clone, no map,
//     zero allocations once warm).
//
// Connected() in surface.go stays as the reference oracle; the property
// tests in connectivity_test.go and shard_test.go pin the ladder to it, over
// band counts that include one, across randomized place/remove/apply/teleport
// sequences.

// connCore is one Tarjan articulation pass over the column band [x0, x1) of
// a surface: the subgraph induced by the occupied cells of those columns,
// with edges to cells outside the band ignored. Arrays are indexed by the
// band-local cell index li = y*bw + (x - x0).
type connCore struct {
	x0, x1 int // column band [x0, x1)
	bw     int // band width = x1 - x0
	aw     int // articulation-bitset words per row = ceil(bw/64)

	comps int      // number of 4-connected components within the band
	artic []uint64 // band-local articulation bitset (aw words per row)

	// Tarjan's discovery times and low links, and the component label
	// (0..comps-1) that maps a boundary cell to its contraction-graph node.
	disc   []int32
	low    []int32
	comp   []int32
	frames []apFrame

	// ovR/ovA, when non-nil, overlay a move delta on the occupancy the pass
	// reads: removed cells read empty, added cells occupied. Rung 2 of the
	// ladder (compose, contraction.go) uses them to rebuild a what-if band
	// core without mutating the surface; they are nil on every cached core.
	ovR, ovA []geom.Vec
}

// apFrame is one explicit-stack frame of the iterative articulation-point
// DFS: the band-local cell, its DFS parent (-1 at a component root), the next
// neighbour direction to examine, and the number of DFS children found.
type apFrame struct {
	cell     int32
	parent   int32
	nextDir  int8
	children int16
}

// ConnStats counts the connectivity work of a surface since it was built or
// cloned: for each kind of query, how many verdicts each rung of the ladder
// answered, and the Tarjan passes and cavity scans behind them. The counts
// are plain ints, written only by the calls that may rebuild the caches
// (Validate and the calls built on it, MoveTeleport, IsArticulation,
// ValidateMoveSet, WarmConnectivity), which the goroutine runtime makes
// under its full engine lock.
type ConnStats struct {
	Moves       Rungs // Remark 1 verdicts on a motion's net delta: Validate, Apply, MoveTeleport, ConnectedAfterDisplacement
	WaveSteps   Rungs // ValidateMoveSet steps
	CutVertices Rungs // IsArticulation queries
	Rebuilds    int   // Tarjan passes over one band, cached or what-if
	CavityScans int   // cavity checks (ForbidCavity, ValidateMoveSet)
}

// Rungs counts verdicts by the rung of the ladder that answered them.
type Rungs struct {
	Ring    int // rung 0: the mover's 3×3 ring
	Band    int // rung 1: a band core's articulation bit
	Overlay int // rung 2: a what-if overlay rebuild
}

// Sub returns the counts accrued since the earlier snapshot o.
func (c ConnStats) Sub(o ConnStats) ConnStats {
	return ConnStats{
		Moves:       c.Moves.sub(o.Moves),
		WaveSteps:   c.WaveSteps.sub(o.WaveSteps),
		CutVertices: c.CutVertices.sub(o.CutVertices),
		Rebuilds:    c.Rebuilds - o.Rebuilds,
		CavityScans: c.CavityScans - o.CavityScans,
	}
}

func (r Rungs) sub(o Rungs) Rungs {
	return Rungs{r.Ring - o.Ring, r.Band - o.Band, r.Overlay - o.Overlay}
}

// ConnStats returns the surface's connectivity counts.
func (s *Surface) ConnStats() ConnStats { return s.stats }

// WarmConnectivity builds the connectivity cache now instead of lazily on
// the first constrained validation: every band core and boundary edge list,
// composed into the global component count. Harnesses call it once after
// loading a scenario so the O(N) rebuild happens at boot, not inside the
// first measured election round. It returns the number of 4-connected components the cache counts
// (0 on an empty surface), so a caller can decide Assumption 1 without a
// separate traversal.
func (s *Surface) WarmConnectivity() int {
	s.shconn.ensure(s)
	return s.shconn.comps
}

// rebuild runs one iterative Tarjan articulation-point pass over the
// occupied cells of the band. All state lives in flat reusable arrays; the
// only allocations are the one-time scratch growths.
func (c *connCore) rebuild(s *Surface) {
	s.stats.Rebuilds++
	c.bw = c.x1 - c.x0
	c.aw = (c.bw + 63) / 64
	cells := c.bw * s.h
	words := c.aw * s.h
	if cap(c.disc) < cells {
		c.disc = make([]int32, cells)
		c.low = make([]int32, cells)
		c.comp = make([]int32, cells)
	} else {
		c.disc = c.disc[:cells]
		c.low = c.low[:cells]
		c.comp = c.comp[:cells]
		for i := range c.disc {
			c.disc[i] = 0
		}
	}
	if cap(c.artic) < words {
		c.artic = make([]uint64, words)
	} else {
		c.artic = c.artic[:words]
		for i := range c.artic {
			c.artic[i] = 0
		}
	}
	c.comps = 0
	c.frames = c.frames[:0]
	timer := int32(1)

	// Seed components from the row bitsets, so empty words cost one load
	// instead of a per-cell test. Cells the overlay removes fail occLocal;
	// cells it adds are not in the bitsets and seed last.
	for y := 0; y < s.h; y++ {
		row := s.occ[y*s.occW : (y+1)*s.occW]
		for wi := c.x0 >> 6; wi <= (c.x1-1)>>6; wi++ {
			lo := max(c.x0-wi<<6, 0)
			hi := min(c.x1-wi<<6, 64)
			word := row[wi] & (^uint64(0) << uint(lo)) & (^uint64(0) >> uint(64-hi))
			for word != 0 {
				x := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				timer = c.dfsFrom(s, int32(y*c.bw+x-c.x0), timer)
			}
		}
	}
	for _, v := range c.ovA {
		if v.X >= c.x0 && v.X < c.x1 {
			timer = c.dfsFrom(s, c.localIdx(v), timer)
		}
	}
}

// dfsFrom runs the Tarjan DFS of one component from the band-local cell
// start, unless start is empty (under the overlay) or already labelled, and
// returns the advanced DFS timer.
func (c *connCore) dfsFrom(s *Surface, start, timer int32) int32 {
	if c.disc[start] != 0 || !c.occLocal(s, start) {
		return timer
	}
	label := int32(c.comps)
	c.comps++
	c.disc[start] = timer
	c.low[start] = timer
	c.comp[start] = label
	timer++
	c.frames = append(c.frames, apFrame{cell: start, parent: -1})
	for len(c.frames) > 0 {
		f := &c.frames[len(c.frames)-1]
		if f.nextDir < 4 {
			d := f.nextDir
			f.nextDir++
			nb := c.occupiedNeighbor(s, f.cell, d)
			if nb < 0 || nb == f.parent {
				continue
			}
			if c.disc[nb] != 0 {
				// Back edge (or an already-finished descendant, whose
				// disc can never lower low below the proper back-edge
				// value): update the low link.
				if c.disc[nb] < c.low[f.cell] {
					c.low[f.cell] = c.disc[nb]
				}
				continue
			}
			c.disc[nb] = timer
			c.low[nb] = timer
			c.comp[nb] = label
			timer++
			c.frames = append(c.frames, apFrame{cell: nb, parent: f.cell})
			continue
		}
		// Cell fully explored: pop and fold its low link into the parent.
		cell, parent, children := f.cell, f.parent, f.children
		c.frames = c.frames[:len(c.frames)-1]
		if parent < 0 {
			// Component root: articulation iff it has >= 2 DFS children.
			if children >= 2 {
				c.setArtic(cell)
			}
			continue
		}
		pf := &c.frames[len(c.frames)-1] // stack discipline: parent frame is below
		pf.children++
		if c.low[cell] < c.low[parent] {
			c.low[parent] = c.low[cell]
		}
		if pf.parent >= 0 && c.low[cell] >= c.disc[parent] {
			// No back edge from cell's subtree climbs above parent:
			// removing parent separates that subtree.
			c.setArtic(parent)
		}
	}
	return timer
}

// occupiedNeighbor returns the band-local index of the d-th 4-neighbour of
// the band-local cell li, or -1 when it lies beyond the band (or the surface
// edge) or is empty under the what-if overlay (if any). Direction order
// matches geom.Dirs (E, N, W, S); only locality matters here.
func (c *connCore) occupiedNeighbor(s *Surface, li int32, d int8) int32 {
	x := c.x0 + int(li)%c.bw
	y := int(li) / c.bw
	switch d {
	case 0:
		x++
	case 1:
		y++
	case 2:
		x--
	default:
		y--
	}
	if x < c.x0 || x >= c.x1 || y < 0 || y >= s.h || !c.occAt(s, x, y) {
		return -1
	}
	return int32(y*c.bw + (x - c.x0))
}

// occLocal reports whether the band-local cell li is occupied, with the
// what-if overlay (if any) applied.
func (c *connCore) occLocal(s *Surface, li int32) bool {
	return c.occAt(s, c.x0+int(li)%c.bw, int(li)/c.bw)
}

// occAt reports whether the band cell (x, y) is occupied, with the what-if
// overlay (if any) applied.
func (c *connCore) occAt(s *Surface, x, y int) bool {
	if c.ovR != nil || c.ovA != nil {
		return s.occAfter(geom.V(x, y), c.ovR, c.ovA)
	}
	return s.grid[y*s.w+x] != None
}

// localIdx translates a surface cell inside the band to its band-local index.
func (c *connCore) localIdx(v geom.Vec) int32 {
	return int32(v.Y*c.bw + (v.X - c.x0))
}

func (c *connCore) setArtic(li int32) {
	lx := int(li) % c.bw
	y := int(li) / c.bw
	c.artic[y*c.aw+lx>>6] |= 1 << (uint(lx) & 63)
}

// isArtic reports whether v is a cached articulation point of its band-local
// component. Only meaningful for occupied band cells after a rebuild.
func (c *connCore) isArtic(v geom.Vec) bool {
	lx := v.X - c.x0
	return c.artic[v.Y*c.aw+lx>>6]>>(uint(lx)&63)&1 != 0
}

// compAt returns the band-local component label of the occupied cell v.
func (c *connCore) compAt(v geom.Vec) int32 { return c.comp[c.localIdx(v)] }

// ConnectedAfterDisplacement reports whether the ensemble remains one
// 4-connected component after moving the occupant of `from` onto the empty
// in-bounds cell `to`, without mutating the surface. It is the exported
// form of the planner's single-displacement connectivity query: O(window)
// for non-articulation movers, and a what-if Tarjan pass over the bands the
// move touches for articulation movers. Inputs violating the contract
// (vacant origin, occupied or out-of-bounds destination) report false.
func (s *Surface) ConnectedAfterDisplacement(from, to geom.Vec) bool {
	if !s.Occupied(from) || s.Occupied(to) || !s.InBounds(to) {
		return false
	}
	sc := &s.scratch
	sc.removed = append(sc.removed[:0], from)
	sc.added = append(sc.added[:0], to)
	return s.connectedAfterMove(sc.removed, sc.added)
}

// connectedAfterMove reports whether the occupancy forms one 4-connected
// component after simultaneously clearing the removed cells and filling the
// added cells. removed must be currently occupied cells, added currently
// empty ones, and the two sets disjoint — exactly the net delta a validated
// motion produces (netDeltaSingleStep, replayMoves in apply.go). The
// semantics match Connected() evaluated on the post-move surface, including
// degenerate inputs: <= 1 block after the move counts as connected, and
// moves applied to an already-disconnected surface (fault injection) may
// reconnect it. The band layout's escalation ladder (shard.go) answers every
// other input, bounded by the band size, never the surface size. The verdict
// counts in ConnStats.Moves.
func (s *Surface) connectedAfterMove(removed, added []geom.Vec) bool {
	return s.connectedAfter(removed, added, &s.stats.Moves)
}

// connectedAfter is connectedAfterMove counting the answering rung in n.
func (s *Surface) connectedAfter(removed, added []geom.Vec, n *Rungs) bool {
	if s.nblk-len(removed)+len(added) <= 1 {
		return true
	}
	return s.shconn.connectedAfterMove(s, removed, added, n)
}

// occAfter is the post-move occupancy: the row bitsets with the delta
// overlaid. The delta slices are tiny (rule move lists), so linear scans
// beat any indexed structure; removed cells are occupied and added cells
// empty, so only one of the two lists needs scanning.
func (s *Surface) occAfter(v geom.Vec, removed, added []geom.Vec) bool {
	if s.Occupied(v) {
		for _, r := range removed {
			if r == v {
				return false
			}
		}
		return true
	}
	for _, a := range added {
		if a == v {
			return true
		}
	}
	return false
}
