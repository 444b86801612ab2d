package lattice

import (
	"math/bits"

	"repro/internal/geom"
)

// Rung 0 of the connectivity ladder: the mover's 3×3 ring.
//
// Blocks are 4-connected and the empty region is 8-connected, the (4,8) pair
// of digital topology that the cavity scan uses too. On an occupancy that is
// one component, every piece that vacating the cell u could cut off holds one
// of u's four side blocks. Consecutive cells of u's 8-cell ring are
// 4-adjacent, so when u's occupied side cells lie in one run of consecutive
// occupied ring cells, that run rejoins every such piece: u is not a cut
// vertex (the simple-point test). A block filling an empty cell d then joins
// the rest through any occupied 4-neighbour. The test reads only u's radius-1
// window, which lies inside every block's sensing window, and costs one table
// lookup. A "yes" is exact; a "no" proves nothing and escalates to the rest of
// the ladder.
//
// Ring bit i is the occupancy of neighbors8(u)[i]: east first, then
// counter-clockwise, so bits i and i+1 (mod 8) are 4-adjacent cells and the
// side cells are the even bits.

// ringJoinTable[r] has bit m set when every side cell named by the 4-bit
// mask m (bit j for ring bit 2j) is occupied in the ring r and all of them
// lie in one run of consecutive occupied cells of r. An empty m is
// trivially joined.
var ringJoinTable = func() (t [256]uint16) {
	for r := 0; r < 256; r++ {
		if r == 0xFF {
			t[r] = 0xFFFF // a full ring is one run
			continue
		}
		// Number the runs of occupied cells 1, 2, ..., walking the ring
		// once from an empty cell so that no run wraps past the start.
		var run [8]int8 // 0: empty cell
		start, id := bits.TrailingZeros8(^uint8(r)), int8(0)
		for k := 1; k < 8; k++ {
			i := (start + k) % 8
			if r>>i&1 == 0 {
				continue
			}
			if r>>((i+7)%8)&1 == 0 {
				id++ // the previous cell is empty: a new run starts here
			}
			run[i] = id
		}
		for m := 0; m < 16; m++ {
			joined, want := true, int8(0) // want: the run every side must share
			for j := 0; j < 4; j++ {
				if m>>j&1 == 0 {
					continue
				}
				if l := run[2*j]; l == 0 || (want != 0 && l != want) {
					joined = false
				} else {
					want = l
				}
			}
			if joined {
				t[r] |= 1 << m
			}
		}
	}
	return t
}()

// ringBit[(dy+1)*3+dx+1] is the ring bit of the offset (dx, dy) from the
// ring's centre; the centre itself maps to 8, outside the ring.
var ringBit = [9]uint8{5, 6, 7, 4, 8, 0, 3, 2, 1}

// ringAround returns the occupancy of u's 8-cell ring with the delta
// removed/added overlaid (cleared and filled cells; nil reads the surface
// as it is).
func (s *Surface) ringAround(u geom.Vec, removed, added []geom.Vec) uint8 {
	// Bit i of each row is the cell at x-1+i: north (NW, N, NE), middle
	// (W, u, E), south (SW, S, SE).
	var north, mid, south uint64
	if x0 := u.X - 1; x0 >= 0 && x0+3 <= s.w && x0&63 <= 61 && u.Y > 0 && u.Y+1 < s.h {
		// Off every edge, with the three columns in one word of each row.
		i, off := (u.Y-1)*s.occW+x0>>6, uint(x0)&63
		south, mid, north = s.occ[i]>>off&7, s.occ[i+s.occW]>>off&7, s.occ[i+2*s.occW]>>off&7
	} else {
		if u.Y+1 < s.h {
			north = s.rowBits(u.Y+1, x0, 3)
		}
		mid = s.rowBits(u.Y, x0, 3)
		if u.Y > 0 {
			south = s.rowBits(u.Y-1, x0, 3)
		}
	}
	r := uint8(mid>>2&1 | north&4>>1 | north&2<<1 | north&1<<3 | mid&1<<4 | south<<5)
	for _, v := range removed {
		if b := ringBitOf(u, v); b < 8 {
			r &^= 1 << b
		}
	}
	for _, v := range added {
		if b := ringBitOf(u, v); b < 8 {
			r |= 1 << b
		}
	}
	return r
}

// ringBitOf returns v's bit in u's ring, or 8 when v is u or lies outside it.
func ringBitOf(u, v geom.Vec) uint8 {
	dx, dy := v.X-u.X, v.Y-u.Y
	if dx < -1 || dx > 1 || dy < -1 || dy > 1 {
		return 8
	}
	return ringBit[(dy+1)*3+dx+1]
}

// ringSides compresses the ring's side cells (its even bits) into the 4-bit
// mask ringJoins indexes.
func ringSides(r uint8) uint8 { return r&1 | r>>1&2 | r>>2&4 | r>>3&8 }

// ringNotCut is rung 0 for a cut-vertex query: on an occupancy that is one
// component, true means vacating u leaves the rest one component.
func (s *Surface) ringNotCut(u geom.Vec) bool {
	r := s.ringAround(u, nil, nil)
	return ringJoinTable[r]>>ringSides(r)&1 != 0
}

// ringJoins is the ring half of rung 0 for moving the block on u to the
// empty cell d, on an occupancy that is one component once the delta
// removed/added is overlaid: true means u's side blocks lie in one run of
// u's ring, so the move keeps the occupancy one component when d touches a
// block other than u. d counts as filled in the ring, so a run may pass
// through it, but it is not one of the side blocks the run must join.
func (s *Surface) ringJoins(u, d geom.Vec, removed, added []geom.Vec) bool {
	r := s.ringAround(u, removed, added)
	sides := ringSides(r)
	if b := ringBitOf(u, d); b < 8 {
		r |= 1 << b
	}
	return ringJoinTable[r]>>sides&1 != 0
}

// touchesBlock reports whether cell d has an occupied 4-neighbour other
// than u.
func (s *Surface) touchesBlock(d, u geom.Vec) bool {
	for _, nb := range geom.Neighbors4(d) {
		if nb != u && s.Occupied(nb) {
			return true
		}
	}
	return false
}
