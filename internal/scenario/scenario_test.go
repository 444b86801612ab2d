package scenario

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lattice"
)

// TestFig10Invariants pins every property the paper states for the §V-D
// example (the figure's pixel layout is not published; these invariants
// are; see Fig10 for the substituted layout).
func TestFig10Invariants(t *testing.T) {
	s, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if s.Surface.NumBlocks() != 12 {
		t.Errorf("blocks = %d, want 12", s.Surface.NumBlocks())
	}
	if s.Input.X != s.Output.X {
		t.Error("I and O must share a column")
	}
	if got := s.Input.Manhattan(s.Output) + 1; got != 11 {
		t.Errorf("path cells = %d, want 11 (\"shortest path distance ... equal to eleven\")", got)
	}
	// Block #2 occupies I, as in the paper's figure.
	if id, ok := s.Surface.BlockAt(s.Input); !ok || id != 2 {
		t.Errorf("block at I = %v, want #2", id)
	}
	if !s.Surface.Connected() {
		t.Error("initial ensemble must be connected (Assumption 1)")
	}
	if s.Surface.Occupied(s.Output) {
		t.Error("O must start free")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Fig10 fails validation: %v", err)
	}
	// Lemma 1 precondition: N blocks, path of at most N-1 cells.
	if cells := s.Input.Manhattan(s.Output) + 1; cells > s.Surface.NumBlocks()-1 {
		t.Errorf("precondition violated: %d cells for %d blocks", cells, s.Surface.NumBlocks())
	}
}

func TestNewAssignsSequentialIDs(t *testing.T) {
	blocks := []geom.Vec{geom.V(1, 0), geom.V(2, 0), geom.V(1, 1)}
	s, err := New("ids", 5, 5, blocks, geom.V(1, 0), geom.V(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range blocks {
		id, ok := s.Surface.BlockAt(v)
		if !ok || id != lattice.BlockID(i+1) {
			t.Errorf("block at %v = %d, want %d", v, id, i+1)
		}
	}
}

func TestNewRejectsInvalidInstances(t *testing.T) {
	cases := []struct {
		name   string
		blocks []geom.Vec
		in     geom.Vec
		out    geom.Vec
	}{
		{"duplicate cell", []geom.Vec{geom.V(1, 0), geom.V(1, 0)}, geom.V(1, 0), geom.V(1, 3)},
		{"no root", []geom.Vec{geom.V(1, 0), geom.V(2, 0), geom.V(1, 1)}, geom.V(3, 3), geom.V(1, 3)},
		{"disconnected", []geom.Vec{geom.V(1, 0), geom.V(3, 3), geom.V(1, 1)}, geom.V(1, 0), geom.V(1, 3)},
		{"collinear", []geom.Vec{geom.V(1, 0), geom.V(2, 0), geom.V(3, 0)}, geom.V(1, 0), geom.V(1, 3)},
	}
	for _, c := range cases {
		if _, err := New(c.name, 6, 6, c.blocks, c.in, c.out); err == nil {
			t.Errorf("%s: New should fail", c.name)
		}
	}
}

func TestBlobGeometry(t *testing.T) {
	s, err := Blob("b", 3, 2, geom.V(2, 0), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Surface.NumBlocks() != 6 {
		t.Errorf("blocks = %d, want 6", s.Surface.NumBlocks())
	}
	if s.Input != geom.V(3, 0) || s.Output != geom.V(3, 5) {
		t.Errorf("I=%v O=%v", s.Input, s.Output)
	}
	if _, err := Blob("bad", 1, 2, geom.V(0, 0), 0, 3); err == nil {
		t.Error("1-wide blob must be rejected (Assumption 1)")
	}
	if _, err := Blob("bad", 3, 2, geom.V(0, 0), 5, 3); err == nil {
		t.Error("inputX outside blob must be rejected")
	}
}

func TestTowerSweep(t *testing.T) {
	scs, err := TowerSweep([]int{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	for _, s := range scs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		n := s.Surface.NumBlocks()
		if got := s.Input.Manhattan(s.Output); got != n-2 {
			t.Errorf("%s: rise = %d, want N-2 = %d", s.Name, got, n-2)
		}
	}
	if _, err := TowerSweep([]int{7}); err == nil {
		t.Error("odd tower size must be rejected")
	}
	if _, err := TowerSweep([]int{4}); err == nil {
		t.Error("tiny tower must be rejected")
	}
}

func TestStaircaseValidation(t *testing.T) {
	if _, err := Staircase("s", nil, 5); err == nil {
		t.Error("empty staircase must fail")
	}
	if _, err := Staircase("s", []int{1}, 5); err == nil {
		t.Error("column of height 1 must fail")
	}
	if _, err := Staircase("s", []int{4, 0}, 5); err == nil {
		t.Error("zero-height lane must fail")
	}
	s, err := Staircase("s", []int{4, 3, 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Surface.NumBlocks() != 8 {
		t.Errorf("blocks = %d, want 8", s.Surface.NumBlocks())
	}
}

// TestGeneratorDegenerateParams: the parameterised generators reject
// zero/negative sizes and rises beyond the block capacity with clear errors
// instead of producing unsolvable or malformed instances.
func TestGeneratorDegenerateParams(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Scenario, error)
		wantErr bool
	}{
		{"slope top 0", func() (*Scenario, error) { return SlopeStaircase(0, 5) }, true},
		{"slope top negative", func() (*Scenario, error) { return SlopeStaircase(-3, 5) }, true},
		{"slope rise 0", func() (*Scenario, error) { return SlopeStaircase(4, 0) }, true},
		{"slope rise negative", func() (*Scenario, error) { return SlopeStaircase(4, -1) }, true},
		// top=4 holds 4+3+2+1 = 10 blocks: capacity n-2 = 8.
		{"slope rise at capacity", func() (*Scenario, error) { return SlopeStaircase(4, 8) }, false},
		{"slope rise beyond capacity", func() (*Scenario, error) { return SlopeStaircase(4, 9) }, true},
		{"stair rise 0", func() (*Scenario, error) { return Staircase("s", []int{4, 3}, 0) }, true},
		{"stair rise negative", func() (*Scenario, error) { return Staircase("s", []int{4, 3}, -2) }, true},
		// heights {4,3} hold 7 blocks: capacity n-2 = 5.
		{"stair rise at capacity", func() (*Scenario, error) { return Staircase("s", []int{4, 3}, 5) }, false},
		{"stair rise beyond capacity", func() (*Scenario, error) { return Staircase("s", []int{4, 3}, 6) }, true},
		{"ridge width too narrow", func() (*Scenario, error) { return WideRidgeSized(20, 5) }, true},
		{"ridge width 0", func() (*Scenario, error) { return WideRidgeSized(0, 5) }, true},
		{"ridge width negative", func() (*Scenario, error) { return WideRidgeSized(-71, 5) }, true},
		{"ridge rise 0", func() (*Scenario, error) { return WideRidgeSized(31, 0) }, true},
		{"ridge rise negative", func() (*Scenario, error) { return WideRidgeSized(31, -5) }, true},
		{"ridge rise beyond capacity", func() (*Scenario, error) { return WideRidgeSized(21, 40) }, true},
		{"ridge minimal valid", func() (*Scenario, error) { return WideRidgeSized(21, 6) }, false},
		{"ridge benchmark shape", func() (*Scenario, error) { return WideRidgeSized(71, 10) }, false},
	}
	for _, c := range cases {
		s, err := c.build()
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: accepted, want an error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: invalid instance: %v", c.name, err)
		}
	}
}

// TestGeneratorsRejectOversized: every generator refuses an instance over
// MaxBlocks or MaxCells with a budget error before it allocates, including
// parameters so large that the block count or surface area would overflow
// an int. The sbserver request schema reaches these generators with
// unbounded client integers.
func TestGeneratorsRejectOversized(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Scenario, error)
	}{
		{"new surface cells", func() (*Scenario, error) {
			return New("wide", 1<<12, 1<<11, []geom.Vec{geom.V(0, 0), geom.V(1, 0)}, geom.V(0, 0), geom.V(1, 0))
		}},
		{"blob blocks", func() (*Scenario, error) { return Build("blob", Params{"w": 300, "h": 300, "rise": 302}) }},
		{"blob cells", func() (*Scenario, error) { return Build("blob", Params{"w": 2, "h": 2, "rise": 1 << 30}) }},
		{"blob overflow", func() (*Scenario, error) { return Build("blob", Params{"w": 1 << 40, "h": 1 << 40}) }},
		{"tower blocks", func() (*Scenario, error) { return Build("tower", Params{"n": 1 << 20}) }},
		{"tower overflow", func() (*Scenario, error) { return Build("tower", Params{"n": 1 << 62}) }},
		// top=400 holds 400*401/2 = 80,200 blocks.
		{"slope blocks", func() (*Scenario, error) { return Build("slope", Params{"top": 400}) }},
		{"slope overflow", func() (*Scenario, error) { return Build("slope", Params{"top": 1 << 62}) }},
		{"ridge blocks", func() (*Scenario, error) { return Build("ridge", Params{"width": 1 << 20}) }},
		// 3020 blocks, but 3001 x 2005 cells.
		{"ridge cells", func() (*Scenario, error) { return Build("ridge", Params{"width": 3001, "rise": 2000}) }},
		{"ridge overflow", func() (*Scenario, error) { return Build("ridge", Params{"width": 1 << 62}) }},
		{"stair blocks", func() (*Scenario, error) { return Parse("stair:40000,40000", 0) }},
		{"stair overflow", func() (*Scenario, error) { return Staircase("s", []int{1 << 62, 1 << 62}, 1) }},
	}
	for _, c := range cases {
		_, err := c.build()
		if err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("%s: err = %v, want a budget error", c.name, err)
		}
	}
}

// TestGeneratorsRejectSurfaceBeyondWireWidth: a generator builds an
// instance with a side of core.MaxSurfaceSide cells, the most a message
// position can address, and refuses one with a longer side, such as a ridge
// 32,800 columns wide, though both are within the size budget.
func TestGeneratorsRejectSurfaceBeyondWireWidth(t *testing.T) {
	if _, err := Build("ridge", Params{"width": core.MaxSurfaceSide}); err != nil {
		t.Errorf("ridge %d columns wide: %v", core.MaxSurfaceSide, err)
	}
	_, err := Build("ridge", Params{"width": 32800})
	if err == nil || !strings.Contains(err.Error(), "more than a message position can address") {
		t.Errorf("ridge 32800 columns wide: err = %v, want the surface-side error", err)
	}
}

// TestWideRidgeSizedMatchesWideRidge: the parameterised ridge at the
// benchmark dimensions reproduces the original instance exactly.
func TestWideRidgeSizedMatchesWideRidge(t *testing.T) {
	a, err := WideRidge()
	if err != nil {
		t.Fatal(err)
	}
	b, err := WideRidgeSized(71, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Input != b.Input || a.Output != b.Output || a.Name != b.Name {
		t.Errorf("I/O/name diverged: %v/%v/%q vs %v/%v/%q",
			a.Input, a.Output, a.Name, b.Input, b.Output, b.Name)
	}
	ap, bp := a.Surface.Positions(), b.Surface.Positions()
	if len(ap) != len(bp) {
		t.Fatalf("block counts diverged: %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("cell %d diverged: %v vs %v", i, ap[i], bp[i])
		}
	}
}

// TestRandomStaircaseFamily: every seed yields a valid instance satisfying
// the Lemma 1 precondition.
func TestRandomStaircaseFamily(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		s, err := RandomStaircase(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		n := s.Surface.NumBlocks()
		cells := s.Input.Manhattan(s.Output) + 1
		if cells > n-1 {
			t.Errorf("seed %d: %d path cells for %d blocks", seed, cells, n)
		}
		if !strings.HasPrefix(s.Name, "random-stair-") {
			t.Errorf("seed %d: name %q", seed, s.Name)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	s, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if _, err := c.Surface.Place(geom.V(0, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Surface.NumBlocks() != 12 || c.Surface.NumBlocks() != 13 {
		t.Error("Clone shares the surface")
	}
}

func TestScenarioConfigDefaults(t *testing.T) {
	s, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Input != s.Input || cfg.Output != s.Output {
		t.Error("config I/O mismatch")
	}
	if !cfg.AllowRetreat {
		t.Error("default config should enable the escape tier")
	}
}

// TestParse covers the command-line scenario specifications.
func TestParse(t *testing.T) {
	s, err := Parse("fig10", 0)
	if err != nil || s.Surface.NumBlocks() != 12 {
		t.Errorf("fig10: %v err=%v", s, err)
	}
	s, err = Parse("tower:10", 0)
	if err != nil || s.Surface.NumBlocks() != 10 {
		t.Errorf("tower: %v err=%v", s, err)
	}
	s, err = Parse("stair:4,3,2", 0)
	if err != nil || s.Surface.NumBlocks() != 9 {
		t.Errorf("stair: %v err=%v", s, err)
	}
	if s.Input.Manhattan(s.Output) != 7 { // default rise = total-2
		t.Errorf("default stair rise = %d", s.Input.Manhattan(s.Output))
	}
	s, err = Parse("stair:4,3,2", 6)
	if err != nil || s.Input.Manhattan(s.Output) != 6 {
		t.Errorf("explicit rise: %v err=%v", s, err)
	}
	for _, bad := range []string{"", "nope", "tower:x", "tower:7", "stair:", "stair:4,x"} {
		if _, err := Parse(bad, 0); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
