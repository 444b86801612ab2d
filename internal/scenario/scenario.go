// Package scenario builds the reconfiguration instances of the evaluation:
// the 12-block example of the paper's §V-D (Figs. 10–11), parametric
// rectangular blobs for the complexity sweeps of Remarks 2–4, and seeded
// random connected blobs for the Lemma 1 property experiments.
package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lattice"
)

// Size budget of a generated instance. Every generator checks its block
// count against MaxBlocks before it lays the blocks out, and New checks the
// surface's cells against MaxCells before it allocates the surface, so an
// oversized request fails with an error instead of exhausting memory. The
// largest registry use in this repository, slope top=30, takes 1,365 cells
// and 465 blocks.
const (
	MaxCells  = 1 << 22
	MaxBlocks = 1 << 16
)

// Scenario is a ready-to-run instance: a populated surface plus the I/O
// cells of the trajectory optimisation problem.
type Scenario struct {
	Name          string
	Description   string
	Surface       *lattice.Surface
	Input, Output geom.Vec
}

// Config returns the default algorithm configuration for the instance.
func (s *Scenario) Config() core.Config { return core.NewConfig(s.Input, s.Output) }

// Validate checks the instance against the paper's assumptions.
func (s *Scenario) Validate() error {
	return core.ValidateInstance(s.Surface, core.Config{Input: s.Input, Output: s.Output})
}

// Clone returns a deep copy (fresh surface) so one scenario definition can
// seed many runs.
func (s *Scenario) Clone() *Scenario {
	return &Scenario{
		Name:        s.Name,
		Description: s.Description,
		Surface:     s.Surface.Clone(),
		Input:       s.Input,
		Output:      s.Output,
	}
}

// New assembles a scenario from explicit block positions; ids are assigned
// in slice order starting at 1 (matching the numbered blocks of Fig. 10).
// Instances over MaxBlocks blocks or MaxCells cells are rejected.
func New(name string, w, h int, blocks []geom.Vec, input, output geom.Vec) (*Scenario, error) {
	if len(blocks) > MaxBlocks {
		return nil, fmt.Errorf("scenario %q: %d blocks exceed the budget of %d", name, len(blocks), MaxBlocks)
	}
	// Divide rather than multiply: huge dimensions must not overflow into a
	// small product. Non-positive ones are NewSurface's to reject.
	if w > 0 && h > MaxCells/w {
		return nil, fmt.Errorf("scenario %q: %dx%d surface exceeds the budget of %d cells", name, w, h, MaxCells)
	}
	surf, err := lattice.NewSurface(w, h)
	if err != nil {
		return nil, err
	}
	for i, v := range blocks {
		if err := surf.PlaceWithID(lattice.BlockID(i+1), v); err != nil {
			return nil, fmt.Errorf("scenario %q: block #%d: %w", name, i+1, err)
		}
	}
	s := &Scenario{Name: name, Surface: surf, Input: input, Output: output}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	return s, nil
}

// Fig10 is the reconfiguration example of §V-D (Figs. 10–11): twelve
// numbered blocks, input and output in the same column, a shortest path of
// eleven cells to build, block #2 among the bottom blocks next to I. The
// exact pixel layout of the paper's figure is not published; this instance
// reproduces every property stated in the text — N=12, same-column I/O,
// path of 11 cells (the "shortest path distance ... equal to eleven" with
// Lemma 1's N-blocks-build-a-path-of-N-1-cells accounting), corner
// crossings that need the carrying rule, and one block ending off the path
// as the stranded final support (the paper's "block #2 does not belong to
// the shortest path from I to O but it is essential to the construction").
func Fig10() (*Scenario, error) {
	// A three-step staircase at the bottom of an 8x13 surface:
	//
	//   y4:  #10 #11
	//   y3:   #8  #9
	//   y2:   #6  #7
	//   y1:   #3  #4  #5
	//   y0:   #2  #1 #12
	//         x2  x3  x4
	//
	// I=(2,0) under block #2 (the Root, as in the paper's figure);
	// O=(2,10), ten rows above in the same column.
	blocks := []geom.Vec{
		geom.V(3, 0), geom.V(2, 0), // #1, #2 (the Root on I)
		geom.V(2, 1), geom.V(3, 1), geom.V(4, 1), // #3 #4 #5
		geom.V(2, 2), geom.V(3, 2), // #6 #7
		geom.V(2, 3), geom.V(3, 3), // #8 #9
		geom.V(2, 4), geom.V(3, 4), // #10 #11
		geom.V(4, 0), // #12
	}
	s, err := New("fig10", 8, 13, blocks, geom.V(2, 0), geom.V(2, 10))
	if err != nil {
		return nil, err
	}
	s.Description = "Paper §V-D example: 12 blocks build the 11-cell column from I to O"
	return s, nil
}

// Blob builds a w x h rectangular blob whose south-west corner sits at
// origin, with I at the column `inputX` of the blob's bottom row and O
// `rise` rows above I in the same column. It is the workload generator of
// the complexity sweeps: N = w*h blocks, path length `rise`.
func Blob(name string, w, h int, origin geom.Vec, inputX, rise int) (*Scenario, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("scenario: blob must be at least 2x2 (Assumption 1), got %dx%d", w, h)
	}
	if inputX < 0 || inputX >= w {
		return nil, fmt.Errorf("scenario: inputX %d outside blob width %d", inputX, w)
	}
	if h > MaxBlocks/w {
		return nil, fmt.Errorf("scenario: %dx%d blob exceeds the budget of %d blocks", w, h, MaxBlocks)
	}
	var blocks []geom.Vec
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			blocks = append(blocks, origin.Add(geom.V(x, y)))
		}
	}
	input := origin.Add(geom.V(inputX, 0))
	output := input.Add(geom.V(0, rise))
	sw := origin.X + w + 2
	sh := origin.Y + rise + 2
	if sw < origin.X+inputX+3 {
		sw = origin.X + inputX + 3
	}
	return New(name, sw, sh, blocks, input, output)
}

// TowerSweep returns the scaling family of the Remark 2–4 experiments:
// for each requested block count N (which must be even), a 2-column tower
// of N blocks that must rebuild into a column of height ~N-1 over I. The
// family keeps the blob shape fixed while N and the path length grow
// together, matching the remarks' asymptotic regime.
func TowerSweep(ns []int) ([]*Scenario, error) {
	var out []*Scenario
	for _, n := range ns {
		if n < 6 || n%2 != 0 {
			return nil, fmt.Errorf("scenario: tower size %d must be even and >= 6", n)
		}
		h := n / 2
		rise := n - 2 // path of N-1 cells: one block remains as final support
		s, err := Blob(fmt.Sprintf("tower-%d", n), 2, h, geom.V(1, 0), 0, rise)
		if err != nil {
			return nil, err
		}
		s.Description = fmt.Sprintf("2x%d tower, N=%d, path %d hops", h, n, rise)
		out = append(out, s)
	}
	return out, nil
}

// Staircase builds a column-adjacent staircase: the path column of height
// heights[0] with I at its base, plus lanes of the remaining heights
// directly east of it. This is the family on which the greedy distributed
// algorithm provably makes progress (see sbbench -exp envelope):
// climbers ascend the face of the column, pairs carry each other over the
// top corner, and blocks join the path where they align with O.
func Staircase(name string, heights []int, rise int) (*Scenario, error) {
	if len(heights) == 0 || heights[0] < 2 {
		return nil, fmt.Errorf("scenario: staircase needs a column of height >= 2")
	}
	if rise < 1 {
		return nil, fmt.Errorf("scenario: staircase rise %d must be >= 1 (O strictly above I)", rise)
	}
	n := 0
	var blocks []geom.Vec
	for lane, h := range heights {
		if h < 1 {
			return nil, fmt.Errorf("scenario: staircase lane %d has height %d", lane, h)
		}
		if h > MaxBlocks-n {
			return nil, fmt.Errorf("scenario: staircase exceeds the budget of %d blocks", MaxBlocks)
		}
		for y := 0; y < h; y++ {
			blocks = append(blocks, geom.V(2+lane, y))
		}
		n += h
	}
	// Lemma 1 precondition: N blocks can build a path of at most N-1 cells
	// (one block stays behind as the final support), so any rise beyond the
	// column capacity n-2 is unsolvable by construction — reject it with a
	// clear error instead of letting the run livelock against a cap.
	if rise > n-2 {
		return nil, fmt.Errorf("scenario: staircase rise %d exceeds the column capacity %d of %d blocks", rise, n-2, n)
	}
	input := geom.V(2, 0)
	output := input.Add(geom.V(0, rise))
	w := 2 + len(heights) + 3
	h := rise + 3
	if top := heights[0] + 2; h < top {
		h = top
	}
	return New(name, w, h, blocks, input, output)
}

// SlopeStaircase builds the strict slope-1 staircase of the given top
// height: lanes of heights top, top-1, ..., 1 east of the path column, with
// O `rise` rows above I. Every step corner along the face is a
// simultaneously mobile block, and corners five or more lanes apart have
// disjoint sensing windows — the workload on which batch elections
// (core.Config.ParallelMoves) admit several winners per round. Plateau-free
// slope-1 is also the widest shape the serial protocol is known to solve:
// wider steps introduce retreat oscillations that livelock it.
func SlopeStaircase(top, rise int) (*Scenario, error) {
	if top < 2 {
		return nil, fmt.Errorf("scenario: slope staircase needs top >= 2, got %d", top)
	}
	if rise < 1 {
		return nil, fmt.Errorf("scenario: slope staircase rise %d must be >= 1", rise)
	}
	if top > MaxBlocks || top*(top+1)/2 > MaxBlocks {
		return nil, fmt.Errorf("scenario: slope staircase top %d exceeds the budget of %d blocks", top, MaxBlocks)
	}
	if max := top*(top+1)/2 - 2; rise > max {
		return nil, fmt.Errorf("scenario: slope staircase rise %d exceeds the capacity %d of a top-%d slope", rise, max, top)
	}
	heights := make([]int, top)
	for i := range heights {
		heights[i] = top - i
	}
	s, err := Staircase(fmt.Sprintf("slope-%d-%d", top, rise), heights, rise)
	if err != nil {
		return nil, err
	}
	s.Description = fmt.Sprintf("slope-1 staircase, top %d, %d lanes, path %d", top, top, rise)
	return s, nil
}

// WideRidge builds the parallel-moves benchmark instance: a symmetric ridge
// on a 71-column surface — a center column of height 6 with stepped
// shoulders descending to long 1-high tails on both flanks, I under the
// column and O ten rows up. The two flanks feed the path from far-apart
// faces, so batch elections make progress on both simultaneously; the
// serial protocol ping-pongs between the symmetric faces and does not
// complete (the livelock is a documented limitation of the greedy
// single-winner protocol on symmetric wide surfaces, not a regression).
func WideRidge() (*Scenario, error) {
	return WideRidgeSized(71, 10)
}

// WideRidgeSized is WideRidge with an explicit surface width and rise. The
// width must leave room for the 9-lane center massif plus the 3-cell margins
// on both sides (w >= 21, odd widths keep the ridge symmetric), and the rise
// must be positive and within the ridge's block capacity.
func WideRidgeSized(w, rise int) (*Scenario, error) {
	if w < 21 {
		return nil, fmt.Errorf("scenario: wide ridge width %d must be >= 21 (center massif plus margins)", w)
	}
	if rise < 1 {
		return nil, fmt.Errorf("scenario: wide ridge rise %d must be >= 1", rise)
	}
	if w-6 > MaxBlocks { // every column from 3 to w-4 holds a block
		return nil, fmt.Errorf("scenario: wide ridge width %d exceeds the budget of %d blocks", w, MaxBlocks)
	}
	cx := w / 2
	heights := func(dx int) int {
		if dx < 0 {
			dx = -dx
		}
		switch {
		case dx <= 4:
			return 6 - dx
		default:
			return 1
		}
	}
	var blocks []geom.Vec
	n := 0
	for x := 3; x <= w-4; x++ {
		h := heights(x - cx)
		for y := 0; y < h; y++ {
			blocks = append(blocks, geom.V(x, y))
		}
		n += h
	}
	if rise > n-2 {
		return nil, fmt.Errorf("scenario: wide ridge rise %d exceeds the capacity %d of %d blocks", rise, n-2, n)
	}
	s, err := New("wide-ridge", w, rise+5, blocks, geom.V(cx, 0), geom.V(cx, rise))
	if err != nil {
		return nil, err
	}
	s.Description = fmt.Sprintf("%d-column symmetric ridge: two flanks feed the path; batch elections required", w)
	return s, nil
}

// RandomStaircase draws a seeded instance from the solvable staircase
// family: a column plus one lane of random (not taller) height and an
// optional short tail, with O sized so the Lemma 1 precondition holds
// (N blocks build a path of at most N-1 cells). It is the workload of the
// Lemma 1 property tests (experiment E12).
func RandomStaircase(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	col := 3 + rng.Intn(6)      // column height 3..8
	lane := 3 + rng.Intn(col-2) // lane height 3..col
	heights := []int{col, lane}
	if rng.Intn(2) == 0 {
		heights = append(heights, 1+rng.Intn(2)) // optional tail of 1..2
	}
	n := 0
	for _, h := range heights {
		n += h
	}
	// Lemma 1 precondition: N blocks build a path of at most N-1 cells,
	// i.e. rise <= n-2. The column itself must also be exceeded
	// (rise >= col+1); lane >= 3 guarantees minRise <= maxRise.
	maxRise := n - 2
	minRise := col + 1
	rise := minRise + rng.Intn(maxRise-minRise+1)
	return Staircase(fmt.Sprintf("random-stair-%d", seed), heights, rise)
}
