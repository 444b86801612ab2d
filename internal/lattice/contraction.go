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
// per boundary). Each boundary caches its deduplicated edge list, which is
// invalidated only when one of its two adjacent bands rebuilds (its labels
// are meaningless afterwards). compose counts the graph's components with a
// union-find over the concatenated label spaces, O(nodes + edges) —
// negligible next to a band pass — for the cached occupancy and for every
// what-if delta alike.

// boundaryEdges caches the deduplicated component-label adjacencies across
// one internal band boundary.
type boundaryEdges struct {
	valid bool
	pairs []edgePair
}

// edgePair is one contraction edge: component label a of the left band,
// component label b of the right band.
type edgePair struct{ a, b int32 }

// scan rebuilds the deduplicated edge list across the boundary between the
// band cores l and r, reading the occupancy with the delta removed/added
// overlaid: one O(H) sweep of the facing column pair.
func (be *boundaryEdges) scan(s *Surface, l, r *connCore, removed, added []geom.Vec) {
	be.pairs = be.pairs[:0]
	xl, xr := l.x1-1, r.x0
	last := edgePair{-1, -1}
	for y := 0; y < s.h; y++ {
		vl, vr := geom.V(xl, y), geom.V(xr, y)
		if !s.occAfter(vl, removed, added) || !s.occAfter(vr, removed, added) {
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
}

// compose returns the exact global component count of the occupancy with
// the delta removed/added overlaid, without mutating the surface; every band
// core and boundary edge list must be valid (ensure). Each band a delta cell
// lies in is re-analysed by a what-if connCore reading through the overlay,
// and each boundary beside one is rescanned; every other band and boundary
// contributes its cached labels and edges. Cost: O(bandWidth x H) per
// affected band plus an O(H) scan per boundary beside one — bounded by the
// delta footprint, never by the surface. An empty delta composes the cached
// count.
func (sc *shardedConn) compose(s *Surface, removed, added []geom.Vec) int {
	if n := len(removed) + len(added); len(sc.wc) < n {
		sc.wc = append(sc.wc, make([]connCore, n-len(sc.wc))...)
	}
	sc.cores = sc.cores[:0]
	for i := range sc.shards {
		sc.cores = append(sc.cores, &sc.shards[i].core)
	}
	cached := func(si int) bool { return sc.cores[si] == &sc.shards[si].core }
	nw := 0
	for _, delta := range [2][]geom.Vec{removed, added} {
		for _, v := range delta {
			si := sc.shardOf(v.X)
			if !cached(si) {
				continue // this band's what-if core is built already
			}
			wc := &sc.wc[nw]
			nw++
			wc.x0, wc.x1 = sc.cores[si].x0, sc.cores[si].x1
			wc.ovR, wc.ovA = removed, added
			wc.rebuild(s)
			wc.ovR, wc.ovA = nil, nil
			sc.cores[si] = wc
		}
	}
	// One union-find slot per band-local component, then one union per
	// contraction edge.
	sc.base = sc.base[:0]
	sc.uf = sc.uf[:0]
	for _, c := range sc.cores {
		sc.base = append(sc.base, int32(len(sc.uf)))
		for range c.comps {
			sc.uf = append(sc.uf, int32(len(sc.uf)))
		}
	}
	comps := len(sc.uf)
	for bi := range sc.edges {
		be := &sc.edges[bi]
		if !cached(bi) || !cached(bi+1) {
			be = &sc.wedge
			be.scan(s, sc.cores[bi], sc.cores[bi+1], removed, added)
		}
		for _, p := range be.pairs {
			if ufUnion(sc.uf, sc.base[bi]+p.a, sc.base[bi+1]+p.b) {
				comps--
			}
		}
	}
	return comps
}

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
