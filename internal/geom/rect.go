package geom

import "fmt"

// Rect is an axis-aligned rectangle of lattice cells with inclusive bounds.
// The paper's oriented graph G = (Br, L) is defined over "the rectangle
// bounded by I and O" (§III); RectSpanning builds exactly that region.
type Rect struct {
	Min, Max Vec // Min.X <= Max.X and Min.Y <= Max.Y for a canonical Rect
}

// RectSpanning returns the smallest rectangle containing both a and b,
// regardless of their relative position (the paper's graph G may be oriented
// left-up, right-up, etc. depending on where O lies relative to I).
func RectSpanning(a, b Vec) Rect {
	return Rect{
		Min: Vec{min(a.X, b.X), min(a.Y, b.Y)},
		Max: Vec{max(a.X, b.X), max(a.Y, b.Y)},
	}
}

// Contains reports whether v lies inside r (bounds inclusive).
func (r Rect) Contains(v Vec) bool {
	return v.X >= r.Min.X && v.X <= r.Max.X && v.Y >= r.Min.Y && v.Y <= r.Max.Y
}

// Width returns the number of columns covered by r.
func (r Rect) Width() int { return r.Max.X - r.Min.X + 1 }

// Height returns the number of rows covered by r.
func (r Rect) Height() int { return r.Max.Y - r.Min.Y + 1 }

// Area returns the number of cells in r.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Expand returns r grown by k cells on every side.
func (r Rect) Expand(k int) Rect {
	return Rect{Vec{r.Min.X - k, r.Min.Y - k}, Vec{r.Max.X + k, r.Max.Y + k}}
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		Min: Vec{min(r.Min.X, o.Min.X), min(r.Min.Y, o.Min.Y)},
		Max: Vec{max(r.Max.X, o.Max.X), max(r.Max.Y, o.Max.Y)},
	}
}

// Cells calls fn for every cell of r in deterministic row-major order
// (south to north, west to east within a row).
func (r Rect) Cells(fn func(Vec)) {
	for y := r.Min.Y; y <= r.Max.Y; y++ {
		for x := r.Min.X; x <= r.Max.X; x++ {
			fn(Vec{x, y})
		}
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s..%s]", r.Min, r.Max)
}

// MaxShortestPath returns the maximum length of a shortest path on a W x H
// surface. The paper (§III) states this is W + H - 1, reached when I and O
// sit at opposite corners of the surface.
func MaxShortestPath(w, h int) int { return w + h - 1 }
