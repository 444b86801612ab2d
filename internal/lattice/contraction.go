package lattice

import (
	"cmp"
	"slices"

	"repro/internal/geom"
)

// The boundary contraction graph.
//
// Global connectivity of a banded surface is the connectivity of a much
// smaller graph: contract every band-local component to one node, and add an
// edge for every pair of laterally adjacent occupied cells that face each
// other across an internal band boundary. The surface is one 4-connected
// component iff this contraction graph is one component — band-internal
// adjacency is already folded into the component labels, and every remaining
// 4-adjacency crosses a boundary column pair by construction.
//
// The graph is tiny (a dense slab contributes one node per band and one edge
// per boundary), so it is stored as a union-find over the concatenated label
// spaces plus one cached, deduplicated edge list per boundary. An edge list
// is invalidated only when one of its two adjacent bands rebuilds (its labels
// are meaningless afterwards); the union-find is recomputed whole on every
// rebuild, which is O(nodes + edges) — negligible next to a band pass.
//
// The graph's own validity is the band layout's all-valid flag
// (shardedConn.valid): any band invalidation clears it.
type contraction struct {
	comps int // global 4-connected component count

	// nodeBase[i] is the first union-find slot of band i's component labels;
	// nodeBase[len(shards)] is the total node count.
	nodeBase []int32
	uf       []int32
	edges    []boundaryEdges // edges[i] spans bands i and i+1
}

// boundaryEdges caches the deduplicated component-label adjacencies across
// one internal band boundary.
type boundaryEdges struct {
	valid bool
	pairs []edgePair
}

// edgePair is one contraction edge: component label a of the left band,
// component label b of the right band.
type edgePair struct{ a, b int32 }

// rebuild refreshes the contraction graph after band rebuilds: rescan the
// invalidated boundary edge lists, then recompute the union-find whole.
// Bands must all be valid (ensure runs them first).
func (ct *contraction) rebuild(s *Surface, sc *shardedConn) {
	ns := len(sc.shards)
	if cap(ct.nodeBase) < ns+1 {
		ct.nodeBase = make([]int32, ns+1)
	}
	ct.nodeBase = ct.nodeBase[:ns+1]
	total := int32(0)
	for i := 0; i < ns; i++ {
		ct.nodeBase[i] = total
		total += int32(sc.shards[i].core.comps)
	}
	ct.nodeBase[ns] = total
	if cap(ct.uf) < int(total) {
		ct.uf = make([]int32, total)
	}
	ct.uf = ct.uf[:total]
	for i := range ct.uf {
		ct.uf[i] = int32(i)
	}
	comps := int(total)
	for bi := 0; bi < ns-1; bi++ {
		be := &ct.edges[bi]
		if !be.valid {
			be.scan(s, &sc.shards[bi].core, &sc.shards[bi+1].core)
		}
		for _, p := range be.pairs {
			if ufUnion(ct.uf, ct.nodeBase[bi]+p.a, ct.nodeBase[bi+1]+p.b) {
				comps--
			}
		}
	}
	ct.comps = comps
}

// scan rebuilds the deduplicated edge list across the boundary between the
// two (valid) band cores: one O(H) sweep of the facing column pair.
func (be *boundaryEdges) scan(s *Surface, l, r *connCore) {
	be.pairs = be.pairs[:0]
	xl, xr := l.x1-1, r.x0
	last := edgePair{-1, -1}
	for y := 0; y < s.h; y++ {
		vl, vr := geom.V(xl, y), geom.V(xr, y)
		if !s.Occupied(vl) || !s.Occupied(vr) {
			continue
		}
		p := edgePair{l.compAt(vl), r.compAt(vr)}
		if p == last {
			continue // vertical runs repeat the same pair
		}
		last = p
		be.pairs = append(be.pairs, p)
	}
	// Sort-and-compact instead of a per-pair membership scan: a fragmented
	// boundary (comb patterns produce one distinct pair per run) stays
	// O(H + P log P) rather than O(H * P).
	slices.SortFunc(be.pairs, func(p, q edgePair) int {
		if c := cmp.Compare(p.a, q.a); c != 0 {
			return c
		}
		return cmp.Compare(p.b, q.b)
	})
	be.pairs = slices.Compact(be.pairs)
	be.valid = true
}

// globalCompCount returns the cached global component count (ensure first).
func (sc *shardedConn) globalCompCount() int { return sc.contr.comps }

// ufFind resolves x's root with path halving.
func ufFind(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// ufUnion merges the classes of a and b, reporting whether they were
// distinct.
func ufUnion(uf []int32, a, b int32) bool {
	ra, rb := ufFind(uf, a), ufFind(uf, b)
	if ra == rb {
		return false
	}
	uf[rb] = ra
	return true
}
