// Package lattice implements the physical modular surface of the Smart
// Blocks system (paper §II–§IV): a W x H grid of cells occupied by
// identified blocks, per-side neighbour sensing, and atomic execution of
// validated motion-rule applications. The lattice enforces what the
// electro-permanent magnet technology enforces: blocks move only through
// rule applications whose Motion Matrix validates against the actual cell
// occupancy, never off the surface, and never in a way that disconnects the
// ensemble (a separated block "cannot move anymore ... and thus cannot
// participate anymore to the distributed application", Remark 1).
//
// Two guarantees back those invariants. The connectivity guard runs on an
// incrementally maintained articulation-point cache over the row bitsets
// (connectivity.go), asked only after the mover's 3×3 ring (ring.go) could
// not decide: while the ensemble is known to be one component, a mover whose
// side blocks lie in one run of its ring can leave without disconnecting it,
// which needs neither the cache nor its rebuild after the last motion. The
// boolean verdict of a connectivity-constrained Validate is thus
// allocation-free and O(window) for single-displacement motions, with
// Connected() kept as the reference DFS oracle. The cache is one layout of
// column bands composed through a boundary contraction graph (shard.go,
// contraction.go): bands of at most BandWidth columns, so on a wide surface
// a mutation invalidates one band instead of the whole surface. And Apply is
// atomic under failure: Validate replays the full move schedule against the
// evolving occupancy before anything mutates, and execution keeps an undo
// log, so a rejected or failed application leaves grid, bitsets, positions
// and counters exactly as they were.
package lattice

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/rules"
)

// BlockID identifies a block, like the numbers that tag blocks in the
// paper's Fig. 10/11 storyboard. The zero value means "no block".
type BlockID int32

// None is the absent block.
const None BlockID = 0

// Errors reported by surface operations.
var (
	ErrOutOfBounds  = errors.New("lattice: cell outside the surface")
	ErrOccupied     = errors.New("lattice: cell already occupied")
	ErrVacant       = errors.New("lattice: cell holds no block")
	ErrUnknownBlock = errors.New("lattice: unknown block id")
	ErrRuleInvalid  = errors.New("lattice: motion matrix does not validate against surface state")
	ErrDisconnects  = errors.New("lattice: motion would disconnect the block ensemble")
	ErrImmobile     = errors.New("lattice: motion moves an immobilised block")
	ErrVetoed       = errors.New("lattice: motion vetoed by guard")
	ErrCavity       = errors.New("lattice: motion would seal an enclosed cavity")
)

// posNone marks an absent id slot in the dense position register.
var posNone = geom.Vec{X: -1, Y: -1}

// Surface is the modular surface state. It is not safe for concurrent use;
// execution engines serialise access (the DES by construction, the goroutine
// runtime through a mutex in its adapter).
//
// Occupancy is stored twice: the id grid (who is where) and a row bitset
// (occ, one bit per cell, occW words per row). The bitset is the substrate
// of the compiled motion validation: OccWindow extracts a block's sensing
// window from it with a handful of word operations, and the rules engine
// matches that window against precompiled rule masks without allocating.
// Block positions live in a dense slice indexed by id (ids are allocated
// sequentially), so a 10^7-module surface pays 8 bytes per block instead of
// a map entry and position lookups are one bounds-checked load.
type Surface struct {
	w, h int
	grid []BlockID  // y*w+x, None = empty
	occ  []uint64   // row bitsets: bit x of words [y*occW, (y+1)*occW)
	occW int        // words per row = ceil(w/64)
	pos  []geom.Vec // indexed by BlockID; posNone = absent
	nblk int        // number of blocks on the surface
	next BlockID

	hops         int // elementary block moves executed (Remark 4 metric)
	applications int // rule applications executed

	// shconn is the lazily maintained connectivity cache: column bands of
	// component labels and articulation bitsets (shard.go), ceil(w/BandWidth)
	// of them unless EnableSharding laid out others. Each band is
	// invalidated by the occupancy mutations in its columns. Clone copies the
	// band count, not the contents.
	shconn *shardedConn
	// stats counts the connectivity ladder's work (see ConnStats).
	stats ConnStats
	// scratch holds the reusable buffers of the validation and execution
	// paths (apply.go), so the boolean Validate verdict allocates nothing.
	scratch applyScratch
}

// NewSurface returns an empty surface of the given dimensions, its
// connectivity cache laid out in ceil(w/BandWidth) equal column bands.
func NewSurface(w, h int) (*Surface, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("lattice: invalid dimensions %dx%d", w, h)
	}
	occW := (w + 63) / 64
	s := &Surface{
		w:    w,
		h:    h,
		grid: make([]BlockID, w*h),
		occ:  make([]uint64, occW*h),
		occW: occW,
		next: 1,
	}
	s.shconn = newShardedConn(s, (w+BandWidth-1)/BandWidth)
	return s, nil
}

// posOf reads the dense position register.
func (s *Surface) posOf(id BlockID) (geom.Vec, bool) {
	if id <= 0 || int(id) >= len(s.pos) {
		return geom.Vec{}, false
	}
	v := s.pos[id]
	if v.X < 0 {
		return geom.Vec{}, false
	}
	return v, true
}

// posSet writes the dense position register, growing it to cover id.
func (s *Surface) posSet(id BlockID, v geom.Vec) {
	if int(id) >= len(s.pos) {
		n := 2 * len(s.pos)
		if n <= int(id) {
			n = int(id) + 1
		}
		grown := make([]geom.Vec, n)
		copy(grown, s.pos)
		for i := len(s.pos); i < n; i++ {
			grown[i] = posNone
		}
		if len(s.pos) == 0 {
			grown[0] = posNone
		}
		s.pos = grown
	}
	s.pos[id] = v
}

// posClear marks id absent in the dense position register.
func (s *Surface) posClear(id BlockID) { s.pos[id] = posNone }

// setOcc marks cell v occupied in the row bitset and invalidates the
// connectivity cache covering it.
func (s *Surface) setOcc(v geom.Vec) {
	s.occ[v.Y*s.occW+v.X>>6] |= 1 << (uint(v.X) & 63)
	s.shconn.invalidateCols(v.X, v.X)
}

// clearOcc marks cell v empty in the row bitset and invalidates the
// connectivity cache covering it.
func (s *Surface) clearOcc(v geom.Vec) {
	s.occ[v.Y*s.occW+v.X>>6] &^= 1 << (uint(v.X) & 63)
	s.shconn.invalidateCols(v.X, v.X)
}

// Width returns the surface width W.
func (s *Surface) Width() int { return s.w }

// Height returns the surface height H.
func (s *Surface) Height() int { return s.h }

// InBounds reports whether v is a cell of the surface.
func (s *Surface) InBounds(v geom.Vec) bool {
	return v.X >= 0 && v.X < s.w && v.Y >= 0 && v.Y < s.h
}

// Place puts a new block on cell v and returns its id.
func (s *Surface) Place(v geom.Vec) (BlockID, error) {
	id := s.next
	if err := s.PlaceWithID(id, v); err != nil {
		return None, err
	}
	return id, nil
}

// PlaceWithID puts a new block with a caller-chosen id on cell v. Scenario
// loaders use it to reproduce the numbered layouts of Fig. 10.
func (s *Surface) PlaceWithID(id BlockID, v geom.Vec) error {
	if id <= None {
		// Ids are strictly positive: 0 is the None sentinel and negative ids
		// would escape the dense position register.
		return fmt.Errorf("%w: id %d (ids are positive)", ErrUnknownBlock, id)
	}
	if !s.InBounds(v) {
		return fmt.Errorf("%w: %v", ErrOutOfBounds, v)
	}
	if s.grid[s.idx(v)] != None {
		return fmt.Errorf("%w: %v", ErrOccupied, v)
	}
	if _, dup := s.posOf(id); dup {
		return fmt.Errorf("lattice: block %d already placed", id)
	}
	s.grid[s.idx(v)] = id
	s.setOcc(v)
	s.posSet(id, v)
	s.nblk++
	if id >= s.next {
		s.next = id + 1
	}
	return nil
}

// FillRect places a new block on every cell of the (inclusive) rectangle r,
// assigning sequential ids in row-major order, and returns the number of
// blocks placed. It is the bulk-fill fast path for scale fixtures: the row
// bitsets are written word-by-word and the connectivity cache is invalidated
// once for the whole range, so building a 10^6-module slab costs a linear
// sweep instead of 10^6 validated Place calls. Every cell of r must be empty;
// on any violation the surface is left untouched.
func (s *Surface) FillRect(r geom.Rect) (int, error) {
	if !s.InBounds(r.Min) || !s.InBounds(r.Max) {
		return 0, fmt.Errorf("%w: %v", ErrOutOfBounds, r)
	}
	// Pre-check emptiness word-by-word so the fill never partially applies.
	for y := r.Min.Y; y <= r.Max.Y; y++ {
		base := y * s.occW
		for w0 := r.Min.X >> 6; w0 <= r.Max.X>>6; w0++ {
			lo := max(r.Min.X, w0<<6)
			hi := min(r.Max.X, w0<<6+63)
			width := hi - lo + 1
			var mask uint64
			if width == 64 {
				mask = ^uint64(0)
			} else {
				mask = (1<<uint(width) - 1) << (uint(lo) & 63)
			}
			if s.occ[base+w0]&mask != 0 {
				return 0, fmt.Errorf("%w: rect %v overlaps existing blocks", ErrOccupied, r)
			}
		}
	}
	base := s.next
	n := r.Area()
	// Pre-grow the position register once.
	s.posSet(base+BlockID(n)-1, posNone)
	id := base
	for y := r.Min.Y; y <= r.Max.Y; y++ {
		rowBase := y * s.occW
		for w0 := r.Min.X >> 6; w0 <= r.Max.X>>6; w0++ {
			lo := max(r.Min.X, w0<<6)
			hi := min(r.Max.X, w0<<6+63)
			width := hi - lo + 1
			var mask uint64
			if width == 64 {
				mask = ^uint64(0)
			} else {
				mask = (1<<uint(width) - 1) << (uint(lo) & 63)
			}
			s.occ[rowBase+w0] |= mask
		}
		gi := y * s.w
		for x := r.Min.X; x <= r.Max.X; x++ {
			s.grid[gi+x] = id
			s.pos[id] = geom.V(x, y)
			id++
		}
	}
	s.next = id
	s.nblk += n
	s.shconn.invalidateCols(r.Min.X, r.Max.X)
	return n, nil
}

// Remove deletes the block from the surface (used by fault-injection tests).
func (s *Surface) Remove(id BlockID) error {
	v, ok := s.posOf(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	s.grid[s.idx(v)] = None
	s.clearOcc(v)
	s.posClear(id)
	s.nblk--
	return nil
}

// Occupied reports whether cell v holds a block. Cells outside the surface
// read as empty: a block can never sense or lean on support beyond the edge.
func (s *Surface) Occupied(v geom.Vec) bool {
	return s.InBounds(v) && s.occ[v.Y*s.occW+v.X>>6]>>(uint(v.X)&63)&1 != 0
}

// OccWindow returns the occupancy window bitboard of the given radius
// centred on anchor: bit row*size+col in display order (row 0 = north),
// the layout of matrix.Motion.Masks and rules.WindowAround. Cells beyond
// the surface edge read as empty. Each window row is extracted from the
// row bitsets with at most two word operations; only radii <=
// rules.MaxWindowRadius (3, a 49-cell window) are representable in the
// uint64 — larger radii panic rather than silently wrap the row shifts,
// and matching for such rules goes through the rules.PresenceAround
// reference path instead. Surface thereby implements rules.WindowSource.
func (s *Surface) OccWindow(anchor geom.Vec, radius int) uint64 {
	if radius > rules.MaxWindowRadius {
		panic(fmt.Sprintf("lattice: OccWindow radius %d exceeds the 64-bit window (max %d); use the PresenceAround fallback", radius, rules.MaxWindowRadius))
	}
	size := 2*radius + 1
	x0 := anchor.X - radius
	var out uint64
	for row := 0; row < size; row++ {
		y := anchor.Y + radius - row
		if y < 0 || y >= s.h {
			continue
		}
		out |= s.rowBits(y, x0, size) << uint(row*size)
	}
	return out
}

// rowBits returns size bits where bit i is the occupancy of cell (x0+i, y);
// cells outside the row read as zero. y must be in bounds and size <= 8.
func (s *Surface) rowBits(y, x0, size int) uint64 {
	base := y * s.occW
	if x0 >= 0 && x0+size <= s.w {
		// Fully interior: one shift, spilling into the next word at most once.
		off := uint(x0) & 63
		bits := s.occ[base+x0>>6] >> off
		if off+uint(size) > 64 {
			bits |= s.occ[base+x0>>6+1] << (64 - off)
		}
		return bits & (1<<uint(size) - 1)
	}
	var bits uint64
	for i := 0; i < size; i++ {
		x := x0 + i
		if x < 0 || x >= s.w {
			continue
		}
		bits |= s.occ[base+x>>6] >> (uint(x) & 63) & 1 << uint(i)
	}
	return bits
}

// BlockAt returns the block occupying v, if any.
func (s *Surface) BlockAt(v geom.Vec) (BlockID, bool) {
	if !s.InBounds(v) {
		return None, false
	}
	id := s.grid[s.idx(v)]
	return id, id != None
}

// PositionOf returns the position of block id.
func (s *Surface) PositionOf(id BlockID) (geom.Vec, bool) {
	return s.posOf(id)
}

// NumBlocks returns the number of blocks on the surface.
func (s *Surface) NumBlocks() int { return s.nblk }

// Blocks returns all block ids in ascending order.
func (s *Surface) Blocks() []BlockID {
	out := make([]BlockID, 0, s.nblk)
	for id := 1; id < len(s.pos); id++ {
		if s.pos[id].X >= 0 {
			out = append(out, BlockID(id))
		}
	}
	return out
}

// Positions returns the occupied cells in deterministic (row-major) order.
func (s *Surface) Positions() []geom.Vec {
	return s.AppendPositions(make([]geom.Vec, 0, s.nblk))
}

// AppendPositions appends the occupied cells to dst in deterministic
// (row-major) order and returns the extended slice. Hot paths (the blocking
// veto runs once per validated candidate) pass a reused buffer so the scan
// allocates nothing once the buffer is warm.
func (s *Surface) AppendPositions(dst []geom.Vec) []geom.Vec {
	for i, id := range s.grid {
		if id != None {
			dst = append(dst, geom.V(i%s.w, i/s.w))
		}
	}
	return dst
}

// IsArticulation reports whether the occupied cell v is currently an
// articulation point of the block ensemble: removing its occupant alone
// would split the (single-component) surface. Unoccupied cells report false.
// While the ensemble is known to be one component, v's 3×3 ring answers
// "not a cut vertex" in O(1) whenever v's side blocks lie in one run of it,
// and when the cache is stale a search of at most 64 blocks from each of
// v's side blocks answers whenever one of them decides (searchCut).
// Otherwise the incremental connectivity cache answers; after the amortised
// rebuild it is O(1) per query on one band. With more bands the band-local
// bitset answers "not an articulation point" in O(1) for a cell with no
// block across a band boundary, and only band-local articulation points
// and boundary cells escalate to the what-if overlay (O(band), never O(N)).
func (s *Surface) IsArticulation(v geom.Vec) bool {
	return s.Occupied(v) && s.shconn.isArticulation(s, v, &s.stats.CutVertices)
}

// Neighbors returns the per-side neighbour table of block id: for each of
// the four lateral sides, the adjacent block or None. This is the paper's
// Neighbor Table NT, fed by the side sensors (§V-B, Fig. 8).
func (s *Surface) Neighbors(id BlockID) ([geom.NumDirs]BlockID, error) {
	var nt [geom.NumDirs]BlockID
	v, ok := s.posOf(id)
	if !ok {
		return nt, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	for _, d := range geom.Dirs() {
		if nb, ok := s.BlockAt(v.Add(d.Vec())); ok {
			nt[d] = nb
		}
	}
	return nt, nil
}

// Hops returns the total number of elementary block moves executed so far
// (each block displaced by a rule application counts one hop; the metric of
// Remark 4 and of the "55 block moves" of §V-D).
func (s *Surface) Hops() int { return s.hops }

// Applications returns the number of rule applications executed.
func (s *Surface) Applications() int { return s.applications }

// Connected reports whether the blocks form one 4-connected component.
// An empty surface counts as connected. This is the reference DFS oracle;
// hot paths use the incremental caches instead.
func (s *Surface) Connected() bool {
	if s.nblk <= 1 {
		return true
	}
	start, ok := s.firstOccupied()
	if !ok {
		return true
	}
	return s.reachableFrom(start) == s.nblk
}

// firstOccupied returns the first occupied cell in row-major order.
func (s *Surface) firstOccupied() (geom.Vec, bool) {
	for i, word := range s.occ {
		if word == 0 {
			continue
		}
		y := i / s.occW
		x := (i%s.occW)<<6 + bits.TrailingZeros64(word)
		return geom.V(x, y), true
	}
	return geom.Vec{}, false
}

func (s *Surface) reachableFrom(start geom.Vec) int {
	seen := map[geom.Vec]bool{start: true}
	stack := []geom.Vec{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range geom.Neighbors4(v) {
			if s.Occupied(n) && !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(seen)
}

func (s *Surface) idx(v geom.Vec) int { return v.Y*s.w + v.X }

// Clone returns a deep copy of the surface (hop and application counters
// included). The connectivity cache and its ConnStats are deliberately not
// copied — clones rebuild on first use and count their own work — but its
// band count is preserved.
func (s *Surface) Clone() *Surface {
	out := &Surface{
		w: s.w, h: s.h,
		grid:         append([]BlockID(nil), s.grid...),
		occ:          append([]uint64(nil), s.occ...),
		occW:         s.occW,
		pos:          append([]geom.Vec(nil), s.pos...),
		nblk:         s.nblk,
		next:         s.next,
		hops:         s.hops,
		applications: s.applications,
	}
	out.shconn = newShardedConn(out, len(s.shconn.shards))
	return out
}
