package baseline

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// TestHungarianSmall: hand-checked assignment instances.
func TestHungarianSmall(t *testing.T) {
	// 2 blocks, 2 cells: the crossing assignment is cheaper.
	cost := [][]int{
		{4, 1},
		{1, 4},
	}
	colToRow, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Errorf("total = %d, want 2", total)
	}
	if colToRow[0] != 1 || colToRow[1] != 0 {
		t.Errorf("assignment = %v", colToRow)
	}
}

// TestHungarianRectangular: more rows (blocks) than columns (cells); idle
// rows are allowed.
func TestHungarianRectangular(t *testing.T) {
	cost := [][]int{
		{9, 9},
		{1, 9},
		{9, 1},
	}
	colToRow, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Errorf("total = %d, want 2", total)
	}
	if colToRow[0] != 1 || colToRow[1] != 2 {
		t.Errorf("assignment = %v", colToRow)
	}
}

func TestHungarianErrors(t *testing.T) {
	if _, _, err := Assign([][]int{{1, 2, 3}, {1, 2, 3}}); err == nil {
		t.Error("more columns than rows must fail")
	}
	if _, _, err := Assign([][]int{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix must fail")
	}
	if _, total, err := Assign(nil); err != nil || total != 0 {
		t.Error("empty matrix should be trivially solved")
	}
}

// TestHungarianAgainstBruteForce: exhaustive cross-check on random small
// instances.
func TestHungarianAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5) // rows (blocks)
		m := 1 + rng.Intn(n) // columns (cells), m <= n
		cost := make([][]int, n)
		for i := range cost {
			cost[i] = make([]int, m)
			for j := range cost[i] {
				cost[i][j] = rng.Intn(20)
			}
		}
		_, got, err := Assign(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceAssign(cost, n, m)
		if got != want {
			t.Fatalf("trial %d: hungarian %d vs brute force %d for %v", trial, got, want, cost)
		}
	}
}

// bruteForceAssign tries every injection of columns into rows.
func bruteForceAssign(cost [][]int, n, m int) int {
	best := 1 << 30
	usedRow := make([]bool, n)
	var rec func(col, acc int)
	rec = func(col, acc int) {
		if acc >= best {
			return
		}
		if col == m {
			best = acc
			return
		}
		for i := 0; i < n; i++ {
			if !usedRow[i] {
				usedRow[i] = true
				rec(col+1, acc+cost[i][col])
				usedRow[i] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestLPath(t *testing.T) {
	// Same-column: a straight segment.
	p := LPath(geom.V(2, 0), geom.V(2, 3))
	want := []geom.Vec{geom.V(2, 0), geom.V(2, 1), geom.V(2, 2), geom.V(2, 3)}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("path[%d] = %v, want %v", i, p[i], want[i])
		}
	}
	// General position: an L with the corner at (O.x, I.y), length d+1.
	p = LPath(geom.V(5, 1), geom.V(2, 4))
	if len(p) != 5+2 {
		t.Fatalf("L path length = %d, want 7", len(p))
	}
	if p[0] != geom.V(5, 1) || p[len(p)-1] != geom.V(2, 4) {
		t.Errorf("endpoints = %v .. %v", p[0], p[len(p)-1])
	}
	corner := geom.V(2, 1)
	foundCorner := false
	for _, v := range p {
		if v == corner {
			foundCorner = true
		}
	}
	if !foundCorner {
		t.Errorf("corner %v not on path %v", corner, p)
	}
}

// TestFreeMotionFig10: the predecessor system solves the Fig. 10 instance
// with far fewer hops than the support-constrained system — the paper's
// motivation for calling this paper's setting "far more constrained".
func TestFreeMotionFig10(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFreeMotion(s.Surface, s.Input, s.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || !res.PathBuilt {
		t.Fatalf("free motion failed: %v", res)
	}
	if res.Hops < res.OracleHops {
		t.Errorf("free motion hops %d beat the oracle %d; oracle is not a lower bound",
			res.Hops, res.OracleHops)
	}
	// 11 path cells, 5 pre-occupied by the initial column: 6 elections.
	if res.Rounds != 6 {
		t.Errorf("rounds = %d, want 6", res.Rounds)
	}
}

// TestFreeMotionRejectsSurfaceBeyondWireWidth: the baseline validates its
// instance as core does, so it refuses a surface with a side over
// core.MaxSurfaceSide.
func TestFreeMotionRejectsSurfaceBeyondWireWidth(t *testing.T) {
	surf, err := lattice.NewSurface(core.MaxSurfaceSide+1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []geom.Vec{geom.V(1, 0), geom.V(2, 0), geom.V(1, 1)} {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunFreeMotion(surf, geom.V(1, 0), geom.V(1, 2)); err == nil {
		t.Error("a surface one column over core.MaxSurfaceSide was accepted")
	}
}

// TestFreeMotionVsConstrained is the E14 direction check: free motion needs
// no more hops than the support-constrained system on the same instance.
func TestFreeMotionVsConstrained(t *testing.T) {
	mk := func() *scenario.Scenario {
		s, err := scenario.Fig10()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	free := mk()
	freeRes, err := RunFreeMotion(free.Surface, free.Input, free.Output)
	if err != nil {
		t.Fatal(err)
	}
	cons := mk()
	consRes, err := coreRun(cons)
	if err != nil {
		t.Fatal(err)
	}
	if freeRes.Hops > consRes.Hops {
		t.Errorf("free motion (%d hops) should not exceed constrained (%d hops)",
			freeRes.Hops, consRes.Hops)
	}
	if freeRes.Rounds > consRes.Rounds {
		t.Errorf("free motion (%d rounds) should not exceed constrained (%d rounds)",
			freeRes.Rounds, consRes.Rounds)
	}
}

func coreRun(s *scenario.Scenario) (core.Result, error) {
	return core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).
		Run(context.Background(), s.Surface, s.Config())
}
