package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/rules"
)

// TestBuildConstraintsImmobile: the physics layer refuses to move frozen
// blocks and the Root, looked up by live position.
func TestBuildConstraintsImmobile(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 5))
	s := surfaceWith(t, 6, 8, geom.V(1, 0), geom.V(1, 1), geom.V(2, 0), geom.V(2, 1))
	c := BuildConstraints(cfg, s, rules.StandardLibrary())
	rootID, _ := s.BlockAt(geom.V(1, 0))
	colID, _ := s.BlockAt(geom.V(1, 1))
	laneID, _ := s.BlockAt(geom.V(2, 1))
	if !c.Immobile(rootID) {
		t.Error("Root must be immobile")
	}
	if !c.Immobile(colID) {
		t.Error("column block must be immobile")
	}
	if c.Immobile(laneID) {
		t.Error("lane block must be mobile")
	}
	if !c.RequireConnectivity {
		t.Error("connectivity must be required (Remark 1)")
	}
}

// TestLineVeto: the literal Remark 1 prohibition rejects states where the
// unfrozen blocks form a single line or column.
func TestLineVeto(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 5))
	cfg.Veto = VetoLine
	// Unfrozen blocks all in row 0 east of the column: a line.
	lineState := surfaceWith(t, 8, 8,
		geom.V(1, 0), geom.V(2, 0), geom.V(3, 0), geom.V(4, 0))
	if err := lineVeto(cfg, lineState); err == nil {
		t.Error("collinear unfrozen blocks must be vetoed")
	}
	// A 2D-spread of unfrozen blocks passes.
	spread := surfaceWith(t, 8, 8,
		geom.V(1, 0), geom.V(2, 0), geom.V(2, 1), geom.V(3, 0))
	if err := lineVeto(cfg, spread); err != nil {
		t.Errorf("2D spread vetoed: %v", err)
	}
	// Terminal state (O occupied) always passes.
	done := surfaceWith(t, 8, 8, geom.V(1, 0), geom.V(1, 5), geom.V(2, 0), geom.V(3, 0))
	if err := lineVeto(cfg, done); err != nil {
		t.Errorf("terminal state vetoed: %v", err)
	}
	// A single unfrozen block is not a "line".
	single := surfaceWith(t, 8, 8, geom.V(1, 0), geom.V(2, 0))
	if err := lineVeto(cfg, single); err != nil {
		t.Errorf("single mobile block vetoed: %v", err)
	}
}

// TestLookaheadVeto: the generalised guard rejects states where no unfrozen
// block has any admissible move while O is free.
func TestLookaheadVeto(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 5))
	lib := rules.StandardLibrary()
	// A healthy tower: lane blocks can climb.
	sc := &vetoScratch{}
	healthy := surfaceWith(t, 6, 8,
		geom.V(1, 0), geom.V(1, 1), geom.V(2, 0), geom.V(2, 1))
	if err := lookaheadVeto(&cfg, lib, healthy, sc); err != nil {
		t.Errorf("healthy state vetoed: %v", err)
	}
	// All blocks frozen, O unoccupied: dead.
	dead := surfaceWith(t, 6, 8, geom.V(1, 0), geom.V(1, 1), geom.V(1, 2))
	if err := lookaheadVeto(&cfg, lib, dead, sc); err == nil {
		t.Error("state with no unfrozen blocks and free O must be vetoed")
	}
	// O occupied: always fine.
	done := surfaceWith(t, 6, 8, geom.V(1, 0), geom.V(1, 5))
	if err := lookaheadVeto(&cfg, lib, done, sc); err != nil {
		t.Errorf("terminal state vetoed: %v", err)
	}
	// An isolated pair beside the column with no possible motion: dead.
	// Two blocks at the east edge cannot move (no support for any slide).
	stuck := surfaceWith(t, 6, 8,
		geom.V(1, 0), geom.V(1, 1), geom.V(1, 2), geom.V(2, 5), geom.V(2, 6))
	// (2,5),(2,6) hang beside the frozen column above its top; check the
	// veto's verdict matches a direct mobility scan.
	err := lookaheadVeto(&cfg, lib, stuck, sc)
	anyMobile := false
	for _, pos := range unfrozenPositions(cfg, stuck) {
		if len(planCandidates(&cfg, lib, pos, stuck, 1, nil, &planBuf{})) > 0 {
			anyMobile = true
		}
	}
	if (err == nil) != anyMobile {
		t.Errorf("veto verdict %v inconsistent with mobility scan %v", err, anyMobile)
	}
}

// TestVetoModeWiring: blockingVeto dispatches per mode.
func TestVetoModeWiring(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 5))
	cfg.Veto = VetoNone
	if blockingVeto(cfg, rules.StandardLibrary()) != nil {
		t.Error("VetoNone must disable the guard")
	}
	cfg.Veto = VetoLine
	if blockingVeto(cfg, rules.StandardLibrary()) == nil {
		t.Error("VetoLine must install a guard")
	}
	cfg.Veto = VetoLookahead
	if blockingVeto(cfg, rules.StandardLibrary()) == nil {
		t.Error("VetoLookahead must install a guard")
	}
}

// TestValidateInstanceErrors covers every Assumption-2 violation.
func TestValidateInstanceErrors(t *testing.T) {
	lib := rules.StandardLibrary()
	_ = lib
	cases := []struct {
		name  string
		build func(t *testing.T) (*lattice.Surface, Config)
		want  string
	}{
		{"I out of bounds", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 4, 4, geom.V(1, 1)), Config{Input: geom.V(9, 0), Output: geom.V(1, 3)}
		}, "outside"},
		{"no root on I", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 4, 4, geom.V(1, 1), geom.V(2, 1)), Config{Input: geom.V(0, 0), Output: geom.V(1, 3)}
		}, "no Root"},
		{"O occupied", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 4, 4, geom.V(1, 1), geom.V(1, 2), geom.V(2, 1)), Config{Input: geom.V(1, 1), Output: geom.V(1, 2)}
		}, "already occupied"},
		{"disconnected", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 6, 6, geom.V(1, 1), geom.V(2, 1), geom.V(4, 4)), Config{Input: geom.V(1, 1), Output: geom.V(1, 3)}
		}, "not connected"},
		// Assumption 1 is decided before collinearity.
		{"disconnected and collinear", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 6, 6, geom.V(1, 1), geom.V(2, 1), geom.V(4, 1)), Config{Input: geom.V(1, 1), Output: geom.V(1, 4)}
		}, "not connected"},
		// Two blocks in different column bands (lattice.BandWidth).
		{"disconnected across bands", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 2*lattice.BandWidth+10, 4, geom.V(1, 1), geom.V(2, 1), geom.V(1, 2),
				geom.V(lattice.BandWidth+5, 1)), Config{Input: geom.V(1, 1), Output: geom.V(1, 3)}
		}, "not connected"},
		{"collinear", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 6, 6, geom.V(1, 1), geom.V(2, 1), geom.V(3, 1)), Config{Input: geom.V(1, 1), Output: geom.V(1, 4)}
		}, "line or column"},
		// The side limit is decided first: this instance is also
		// disconnected.
		{"wider than a message can address", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, MaxSurfaceSide+1, 4, geom.V(1, 1), geom.V(2, 1), geom.V(1, 2),
				geom.V(MaxSurfaceSide, 1)), Config{Input: geom.V(1, 1), Output: geom.V(1, 3)}
		}, "side over 32765 cells"},
		{"taller than a message can address", func(t *testing.T) (*lattice.Surface, Config) {
			return surfaceWith(t, 4, MaxSurfaceSide+1, geom.V(1, 1), geom.V(2, 1), geom.V(1, 2)),
				Config{Input: geom.V(1, 1), Output: geom.V(1, 3)}
		}, "side over 32765 cells"},
	}
	for _, c := range cases {
		surf, cfg := c.build(t)
		err := ValidateInstance(surf, cfg.WithDefaults())
		if err == nil {
			t.Errorf("%s: want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// Engine.Run decides Assumption 1 from its connectivity cache
		// instead of the oracle, with the same errors in the same order.
		_, runErr := NewEngine(rules.StandardLibrary()).Run(context.Background(), surf, cfg.WithDefaults())
		if runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Engine.Run error %v, want %q", c.name, runErr, err)
		}
	}
	// A valid instance passes.
	surf := surfaceWith(t, 6, 8, geom.V(1, 0), geom.V(2, 0), geom.V(1, 1), geom.V(2, 1))
	if err := ValidateInstance(surf, NewConfig(geom.V(1, 0), geom.V(1, 5))); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

// TestRunRejectsInvalidInstance: Engine.Run gives a disconnected instance
// the Assumption 1 error.
func TestRunRejectsInvalidInstance(t *testing.T) {
	surf := surfaceWith(t, 6, 6, geom.V(1, 1), geom.V(3, 3))
	_, err := NewEngine(rules.StandardLibrary()).
		Run(context.Background(), surf, NewConfig(geom.V(1, 1), geom.V(1, 4)))
	if err == nil || !strings.Contains(err.Error(), "not connected (Assumption 1)") {
		t.Fatalf("Engine.Run on a disconnected instance: error %v, want the Assumption 1 error", err)
	}
}

// TestRunRejectsSurfaceBeyondWireWidth: Engine.Run completes an instance
// whose blocks stand at the far edge of a surface MaxSurfaceSide columns
// wide, and refuses the same instance one column wider before it builds
// any block code, let alone boots it.
func TestRunRejectsSurfaceBeyondWireWidth(t *testing.T) {
	for _, w := range []int{MaxSurfaceSide, MaxSurfaceSide + 1} {
		x := w - 3
		surf := surfaceWith(t, w, 8, geom.V(x, 0), geom.V(x+1, 0), geom.V(x, 1), geom.V(x+1, 1), geom.V(x+1, 2))
		cfg := NewConfig(geom.V(x, 0), geom.V(x, 3))
		blocks := 0
		countBlocks := WithFaultWrap(func(f exec.CodeFactory) exec.CodeFactory {
			return func(id lattice.BlockID) exec.BlockCode {
				blocks++
				return f(id)
			}
		})
		res, err := NewEngine(rules.StandardLibrary(), countBlocks).Run(context.Background(), surf, cfg)
		if w == MaxSurfaceSide {
			if err != nil || !res.Success {
				t.Errorf("%d columns: %v, err %v; want success", w, res, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "more than a message position can address") {
			t.Errorf("%d columns: error %v, want the surface-side error", w, err)
		}
		if blocks != 0 {
			t.Errorf("%d columns: %d blocks were built before the refusal, want none", w, blocks)
		}
	}
}

// TestLookaheadVetoZeroAllocs pins the undo-based veto at zero allocations
// steady-state: a vetoed candidate is applied to the live surface through
// the executor's undo log, the lookahead probes mobility on reused
// buffers, and the rollback restores the exact pre-move state — no Clone,
// no per-candidate garbage. This is the guard behind deleting the old
// clone-and-enumerate veto path.
func TestLookaheadVetoZeroAllocs(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 5))
	lib := rules.StandardLibrary()
	surf := surfaceWith(t, 8, 8,
		geom.V(1, 0), geom.V(2, 0), geom.V(3, 0), geom.V(1, 1), geom.V(2, 1))
	cons := BuildConstraints(cfg, surf, lib)

	// A mover with a valid, veto-passing candidate.
	id, ok := surf.BlockAt(geom.V(2, 1))
	if !ok {
		t.Fatal("no block on the lane cell")
	}
	apps, err := surf.ApplicationsFor(id, lib, cons)
	if err != nil || len(apps) == 0 {
		t.Fatalf("lane block has no constrained applications (err=%v)", err)
	}
	app := apps[0]
	before := surf.Positions()

	// Warm-up: grows every scratch buffer once.
	if err := surf.Validate(app, cons); err != nil {
		t.Fatalf("warm-up validate: %v", err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := surf.Validate(app, cons); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("undo-based veto validate allocates %v/op, want 0", n)
	}

	// The apply-inspect-rollback pass must leave the surface bit-identical.
	after := surf.Positions()
	if len(before) != len(after) {
		t.Fatalf("veto pass changed the block count: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("veto pass moved a block: %v -> %v", before[i], after[i])
		}
	}
	if !surf.Connected() {
		t.Fatal("veto pass left the surface disconnected")
	}
}
