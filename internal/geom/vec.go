// Package geom provides the lattice geometry substrate for the modular
// surface: integer vectors, the four cardinal directions blocks can sense and
// move along, inclusive rectangles (the region spanned by the input I and the
// output O in the paper's oriented graph G), and the eight symmetries of the
// square used to derive motion rules "via symmetry or rotation" (paper §IV).
//
// Coordinate convention: X grows east, Y grows north. A cell position is the
// node of the grid at the centre of the cell (paper §III). This matches the
// paper's two-component block position vector with 0 <= B1 < W, 0 <= B2 < H.
package geom

import "fmt"

// Vec is an integer lattice vector. It is used both as an absolute cell
// position on the surface and as a relative displacement.
type Vec struct {
	X, Y int
}

// V is shorthand for Vec{x, y}.
func V(x, y int) Vec { return Vec{x, y} }

// Add returns v + o.
func (v Vec) Add(o Vec) Vec { return Vec{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec) Sub(o Vec) Vec { return Vec{v.X - o.X, v.Y - o.Y} }

// Neg returns -v.
func (v Vec) Neg() Vec { return Vec{-v.X, -v.Y} }

// Scale returns v scaled by k.
func (v Vec) Scale(k int) Vec { return Vec{v.X * k, v.Y * k} }

// Manhattan returns the L1 distance |v.X-o.X| + |v.Y-o.Y|, the hop-count
// metric of the paper (eq. (10)).
func (v Vec) Manhattan(o Vec) int {
	return abs(v.X-o.X) + abs(v.Y-o.Y)
}

// Norm1 returns |v.X| + |v.Y|.
func (v Vec) Norm1() int { return abs(v.X) + abs(v.Y) }

// NormInf returns the Chebyshev (L∞) norm max(|v.X|, |v.Y|): the radius of
// the smallest square sensing window centred on the origin that contains v.
func (v Vec) NormInf() int {
	ax, ay := abs(v.X), abs(v.Y)
	if ax > ay {
		return ax
	}
	return ay
}

// Chebyshev returns the L∞ distance max(|v.X-o.X|, |v.Y-o.Y|), the metric
// of the square sensing windows (a cell is sensable iff its Chebyshev
// distance from the block is at most the sensing radius).
func (v Vec) Chebyshev(o Vec) int { return v.Sub(o).NormInf() }

// IsUnitStep reports whether v is one of the four unit cardinal steps, i.e.
// a legal single-hop displacement (only straight moves are allowed, §IV).
func (v Vec) IsUnitStep() bool { return v.Norm1() == 1 }

// AlignedWith reports whether v shares a row or a column with o
// (v.X == o.X or v.Y == o.Y). Equation (8) of the paper assigns distance +inf
// to blocks aligned with the output O.
func (v Vec) AlignedWith(o Vec) bool { return v.X == o.X || v.Y == o.Y }

// String implements fmt.Stringer.
func (v Vec) String() string { return fmt.Sprintf("(%d,%d)", v.X, v.Y) }

// Less orders vectors lexicographically (Y major, then X). It gives scans a
// deterministic order so simulations are reproducible.
func (v Vec) Less(o Vec) bool {
	if v.Y != o.Y {
		return v.Y < o.Y
	}
	return v.X < o.X
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// Dir is one of the four cardinal directions. Blocks have sensors,
// electro-permanent magnet actuators and one communication port on each of
// their four lateral sides (paper §II), so every per-side datum in the system
// (neighbour tables, links) is indexed by Dir.
type Dir int

// The four sides of a block, in counter-clockwise order starting east.
const (
	East Dir = iota
	North
	West
	South
	NumDirs = 4
)

var dirVecs = [NumDirs]Vec{
	East:  {1, 0},
	North: {0, 1},
	West:  {-1, 0},
	South: {0, -1},
}

var dirNames = [NumDirs]string{"east", "north", "west", "south"}

// Vec returns the unit displacement of d.
func (d Dir) Vec() Vec { return dirVecs[d] }

// Opposite returns the direction pointing the other way.
func (d Dir) Opposite() Dir { return (d + 2) % NumDirs }

// CCW returns d rotated 90 degrees counter-clockwise.
func (d Dir) CCW() Dir { return (d + 1) % NumDirs }

// CW returns d rotated 90 degrees clockwise.
func (d Dir) CW() Dir { return (d + 3) % NumDirs }

// Valid reports whether d is one of the four cardinal directions.
func (d Dir) Valid() bool { return d >= 0 && d < NumDirs }

// String implements fmt.Stringer.
func (d Dir) String() string {
	if !d.Valid() {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// Dirs returns the four directions in deterministic order (E, N, W, S).
func Dirs() [NumDirs]Dir { return [NumDirs]Dir{East, North, West, South} }

// DirOf returns the direction of the unit step from 'from' to 'to' and true,
// or an unspecified direction and false if the two cells are not 4-adjacent.
func DirOf(from, to Vec) (Dir, bool) {
	d := to.Sub(from)
	for _, dir := range Dirs() {
		if dirVecs[dir] == d {
			return dir, true
		}
	}
	return East, false
}

// Neighbors4 returns the four 4-adjacent cells of v in E, N, W, S order.
func Neighbors4(v Vec) [NumDirs]Vec {
	return [NumDirs]Vec{
		v.Add(dirVecs[East]),
		v.Add(dirVecs[North]),
		v.Add(dirVecs[West]),
		v.Add(dirVecs[South]),
	}
}
