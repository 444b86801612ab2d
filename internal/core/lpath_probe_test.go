package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// TestGeneralPositionCharacterization documents that instances whose output
// is laterally displaced from the blob (L-shaped paths, the "left-up
// oriented graph" of the paper's Fig. 2) are outside the solvable envelope
// of the support-constrained system:
//
//   - moving east over empty surface needs support blocks that do not exist
//     (every slide and carry demands occupied support cells beside the
//     route), so a compact tower cannot stretch towards a displaced O;
//   - eq. (8) freezes any block sharing O's row inside the I-O rectangle,
//     capping the tower and paralysing everything beneath it.
//
// The paper's own worked example is same-column; its predecessor [14]
// covered general position precisely because blocks there moved without
// support. If a richer rule set ever makes these pass, flip the
// expectations and update the solvable envelope in
// internal/experiments/envelope.go.
func TestGeneralPositionCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("slow characterization")
	}
	cases := []struct {
		name string
		hts  []int
		out  geom.Vec
	}{
		{"L-displaced-far", []int{6, 6}, geom.V(6, 5)},
		{"L-displaced-near", []int{5, 5}, geom.V(4, 6)},
	}
	for _, c := range cases {
		s, err := scenario.Staircase(c.name, c.hts, 8)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := scenario.New(c.name, 12, 14, s.Surface.Positions(), s.Input, c.out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cfg := s2.Config()
		cfg.MaxRounds = 600
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s2.Surface, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Success {
			t.Errorf("%s: general position now solves (%v); update the envelope in internal/experiments/envelope.go", c.name, res)
		}
	}
}
