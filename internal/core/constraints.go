package core

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// BuildConstraints returns the physical-layer checks the surface applies to
// every motion of this instance:
//
//   - connectivity preservation (Remark 1: a separated block can never move
//     again, so disconnecting motions are prohibited) — answered by the
//     lattice's incremental articulation-point cache, so per-candidate
//     validation neither clones the surface nor reruns a DFS,
//   - immobility of frozen blocks and of the Root (Lemma 1(b): positions on
//     the path remain occupied),
//   - the Remark 1 blocking veto in the configured mode.
//
// In hardware these are properties of the electro-permanent latching and of
// the rule set; in the reproduction the lattice enforces them centrally.
func BuildConstraints(cfg Config, surf *lattice.Surface, lib *rules.Library) lattice.Constraints {
	return lattice.Constraints{
		RequireConnectivity: true,
		Immobile: func(id lattice.BlockID) bool {
			pos, ok := surf.PositionOf(id)
			return ok && cfg.Frozen(pos)
		},
		Veto: blockingVeto(cfg, lib),
		// Batch rounds interleave displacements the serial schedule could
		// not produce; refusing to seal pockets of empty space keeps those
		// interleavings inside the serially-reachable surface family. The
		// serial path (k=1) never attempts such a motion, so the guard is
		// only paid — and only semantically active — under parallel
		// admission.
		ForbidCavity: cfg.parallelK() > 1,
	}
}

// errBlocking reports a state Remark 1 prohibits.
var errBlocking = errors.New("core: motion leads to a blocking (Remark 1)")

// blockingVeto returns the post-state guard for the configured VetoMode.
// The physical layer applies the candidate motion to the live surface
// through its undo log, hands it to the veto, and rolls it back afterwards
// (see lattice.Constraints.Veto) — no surface clone. Each closure carries
// its own reusable scratch, so the per-candidate veto is allocation-free
// once warm.
func blockingVeto(cfg Config, lib *rules.Library) func(after *lattice.Surface) error {
	switch cfg.Veto {
	case VetoNone:
		return nil
	case VetoLine:
		return func(after *lattice.Surface) error { return lineVeto(cfg, after) }
	default:
		sc := &vetoScratch{}
		return func(after *lattice.Surface) error { return lookaheadVeto(&cfg, lib, after, sc) }
	}
}

// vetoScratch holds the reusable state of one lookahead veto closure: the
// occupied-cell scan and the per-block application probe reuse its buffers
// across every candidate the veto inspects, and witness is the last mobile
// unfrozen block the veto found (lattice.None before the first).
type vetoScratch struct {
	cells   []geom.Vec
	apps    []rules.Application
	witness lattice.BlockID
}

// lineVeto is the literal Remark 1 prohibition: after the motion, the
// unfrozen blocks must not form a single line or column (such a bar has no
// lateral support anywhere and can never move again).
func lineVeto(cfg Config, after *lattice.Surface) error {
	if after.Occupied(cfg.Output) {
		return nil // terminal state: the path is complete
	}
	mobiles := unfrozenPositions(cfg, after)
	if len(mobiles) < 2 {
		return nil
	}
	sameX, sameY := true, true
	for _, p := range mobiles[1:] {
		if p.X != mobiles[0].X {
			sameX = false
		}
		if p.Y != mobiles[0].Y {
			sameY = false
		}
	}
	if sameX || sameY {
		return fmt.Errorf("%w: %d unfrozen blocks collinear", errBlocking, len(mobiles))
	}
	return nil
}

// lookaheadVeto generalises Remark 1: the motion must not leave the system
// in a state where O is unoccupied and yet no unfrozen block has any
// admissible move (at the most permissive tier the configuration allows).
// It short-circuits on the first mobile block found, and asks the last one
// it found (the witness) first: one motion seldom immobilises it, so most
// vetoes probe one block instead of scanning the surface. Only when the
// witness is gone, frozen or immobile does it scan every block. The surface
// it inspects is the live one with the candidate motion applied via the
// undo log (the clone-and-enumerate pass this replaces was the dominant
// per-round cost); the whole probe runs on the closure's reusable scratch —
// zero allocations steady-state, with an AllocsPerRun guard pinning it.
func lookaheadVeto(cfg *Config, lib *rules.Library, after *lattice.Surface, sc *vetoScratch) error {
	if after.Occupied(cfg.Output) {
		return nil
	}
	tier := msg.TierDecreasing
	if cfg.AllowRetreat {
		tier = msg.TierRetreat
	}
	// The veto itself must not recurse into vetoes: candidates here are
	// checked for local validity only, which is exactly the mobility notion
	// of eq. (9). The surface is real, so each block's sensing window comes
	// straight off the row bitsets.
	if pos, ok := after.PositionOf(sc.witness); ok && !cfg.Frozen(pos) &&
		hasAdmissibleOn(cfg, lib, pos, after, tier, &sc.apps) {
		return nil
	}
	sc.cells = after.AppendPositions(sc.cells[:0])
	unfrozen := 0
	for _, pos := range sc.cells {
		if cfg.Frozen(pos) {
			continue
		}
		unfrozen++
		if hasAdmissibleOn(cfg, lib, pos, after, tier, &sc.apps) {
			sc.witness, _ = after.BlockAt(pos)
			return nil
		}
	}
	if unfrozen == 0 {
		return fmt.Errorf("%w: no unfrozen blocks remain, O unoccupied", errBlocking)
	}
	return fmt.Errorf("%w: none of %d unfrozen blocks can move", errBlocking, unfrozen)
}

// unfrozenPositions lists positions of blocks not frozen by eq. (8) and not
// pinned on I, in deterministic order.
func unfrozenPositions(cfg Config, surf *lattice.Surface) []geom.Vec {
	var out []geom.Vec
	for _, p := range surf.Positions() {
		if !cfg.Frozen(p) {
			out = append(out, p)
		}
	}
	return out
}
