package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

func surfaceWith(t *testing.T, w, h int, cells ...geom.Vec) *lattice.Surface {
	t.Helper()
	s, err := lattice.NewSurface(w, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cells {
		if _, err := s.Place(v); err != nil {
			t.Fatalf("placing %v: %v", v, err)
		}
	}
	return s
}

// TestPlanDecreasingOnly: at the decreasing tier every candidate strictly
// reduces the planning block's hop count.
func TestPlanDecreasingOnly(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 6))
	// A 2x3 tower: column x=1, lane x=2.
	s := surfaceWith(t, 6, 9,
		geom.V(1, 0), geom.V(2, 0), geom.V(1, 1), geom.V(2, 1), geom.V(1, 2), geom.V(2, 2))
	pos := geom.V(2, 2) // top lane block
	d0 := pos.Manhattan(cfg.Output)
	cands := planCandidates(&cfg, rules.StandardLibrary(), pos, s, msg.TierDecreasing, nil, &planBuf{})
	if len(cands) == 0 {
		t.Fatal("top lane block should have decreasing candidates")
	}
	for _, c := range cands {
		if c.To.Manhattan(cfg.Output) >= d0 {
			t.Errorf("candidate %v does not decrease distance", c.App)
		}
	}
}

// TestPlanRetreatAdmitsStepBack: the retreat tier admits d+1 moves, which
// the decreasing tier rejects.
func TestPlanRetreatAdmitsStepBack(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 6))
	// A block walled in except for a southern retreat: lane block at (2,1)
	// with the column west and a block on top of it... simpler: block at
	// (2,2) sitting on (2,1),(2,0) with column x=1 only two tall: its north
	// slide lacks the (1,3) support, so the only moves are retreats.
	s := surfaceWith(t, 6, 9,
		geom.V(1, 0), geom.V(1, 1), geom.V(2, 0), geom.V(2, 1), geom.V(2, 2))
	pos := geom.V(2, 2)
	dec := planCandidates(&cfg, rules.StandardLibrary(), pos, s, msg.TierDecreasing, nil, &planBuf{})
	// North slide (2,3) is supported west by (1,2)? (1,2) is empty, and
	// east support is empty too: no decreasing move. West (1,2) entry:
	// slide west needs south supports (2,1) and (1,1): both present! That
	// move decreases distance, so the decreasing tier is non-empty; pin the
	// exact move instead.
	foundWest := false
	for _, c := range dec {
		if c.To == geom.V(1, 2) {
			foundWest = true
		}
		if c.To.Manhattan(cfg.Output) >= pos.Manhattan(cfg.Output) {
			t.Errorf("decreasing tier admitted %v", c.To)
		}
	}
	if !foundWest {
		t.Error("west entry onto the column should be a decreasing candidate")
	}
	ret := planCandidates(&cfg, rules.StandardLibrary(), pos, s, msg.TierRetreat, nil, &planBuf{})
	if len(ret) < len(dec) {
		t.Error("retreat tier must be a superset of the decreasing tier")
	}
}

// TestPlanAvoidExcludesCell: the no-return memory excludes the origin cell.
func TestPlanAvoidExcludesCell(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 6))
	s := surfaceWith(t, 6, 9,
		geom.V(1, 0), geom.V(1, 1), geom.V(2, 0), geom.V(2, 1), geom.V(2, 2))
	pos := geom.V(2, 2)
	avoid := geom.V(1, 2)
	with := planCandidates(&cfg, rules.StandardLibrary(), pos, s, msg.TierDecreasing, &avoid, &planBuf{})
	for _, c := range with {
		if c.To == avoid {
			t.Errorf("avoided cell %v still offered", avoid)
		}
	}
	without := planCandidates(&cfg, rules.StandardLibrary(), pos, s, msg.TierDecreasing, nil, &planBuf{})
	if len(without) != len(with)+1 {
		t.Errorf("avoid should remove exactly the west entry: %d vs %d", len(without), len(with))
	}
}

// TestPlanFrozenMoversExcluded: applications that would move a frozen block
// (as mover or carried helper) are not candidates.
func TestPlanFrozenMoversExcluded(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 6))
	// Column x=1 height 3 (frozen), climber pair (2,1),(2,2): carry north
	// is fine (both movers unfrozen); but a hypothetical candidate moving a
	// column block must be rejected. Verify by asking the column block.
	s := surfaceWith(t, 6, 9,
		geom.V(1, 0), geom.V(1, 1), geom.V(1, 2), geom.V(2, 1), geom.V(2, 2), geom.V(2, 0))
	for _, frozenPos := range []geom.Vec{geom.V(1, 1), geom.V(1, 2)} {
		cands := planCandidates(&cfg, rules.StandardLibrary(), frozenPos, s, msg.TierRetreat, nil, &planBuf{})
		if len(cands) != 0 {
			t.Errorf("frozen block at %v has candidates %v", frozenPos, cands)
		}
	}
}

// TestPlanHelperMustBenefit: carries whose helper's distance would grow are
// rejected (the anti-shove rule). The east-carry that would push a partner
// away from O never appears among candidates.
func TestPlanHelperMustBenefit(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 8))
	// Row of three blocks on a support row: (2,1),(3,1) with supports
	// (2,0),(3,0),(4,0) — block at (3,1) could carry-east dragging (2,1)
	// with it; moving east increases both distances, so it is never a
	// decreasing candidate; even at retreat tier the helper (2,1) moving
	// east from d=1+.. wait: the planning block is (3,1); the helper (2,1)
	// moves to (3,1), increasing |x-1| from 1 to 2: the helper loses.
	s := surfaceWith(t, 8, 10,
		geom.V(1, 0), geom.V(1, 1), // column stub
		geom.V(2, 0), geom.V(3, 0), geom.V(4, 0),
		geom.V(2, 1), geom.V(3, 1))
	cands := planCandidates(&cfg, rules.StandardLibrary(), geom.V(3, 1), s, msg.TierRetreat, nil, &planBuf{})
	for _, c := range cands {
		for _, am := range c.App.AbsMoves() {
			if am.From != geom.V(3, 1) &&
				am.To.Manhattan(cfg.Output) >= am.From.Manhattan(cfg.Output) {
				t.Errorf("candidate %v drags helper %v backwards", c.App, am.From)
			}
		}
	}
}

// TestPlanScoringPrefersFreezing: a move that lands on the path (freezes)
// sorts before a move that merely approaches.
func TestPlanScoringPrefersFreezing(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 6))
	// Climber at (2,2) beside column top (1,1): west entry (1,2) freezes;
	// any other decreasing move does not. West entry must sort first.
	s := surfaceWith(t, 6, 9,
		geom.V(1, 0), geom.V(1, 1), geom.V(2, 0), geom.V(2, 1), geom.V(2, 2))
	cands := planCandidates(&cfg, rules.StandardLibrary(), geom.V(2, 2), s, msg.TierDecreasing, nil, &planBuf{})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].To != geom.V(1, 2) {
		t.Errorf("first candidate = %v, want the freezing west entry (1,2)", cands[0].To)
	}
	if !cfg.Frozen(cands[0].To) {
		t.Error("preferred destination should freeze")
	}
}

// TestPlanDeterministicOrder: two identical calls yield identical slices.
func TestPlanDeterministicOrder(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 8))
	s := surfaceWith(t, 8, 10,
		geom.V(1, 0), geom.V(1, 1), geom.V(2, 0), geom.V(2, 1), geom.V(2, 2), geom.V(3, 0))
	a := planCandidates(&cfg, rules.StandardLibrary(), geom.V(2, 2), s, msg.TierRetreat, nil, &planBuf{})
	b := planCandidates(&cfg, rules.StandardLibrary(), geom.V(2, 2), s, msg.TierRetreat, nil, &planBuf{})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].To != b[i].To || a[i].App.Rule.Name != b[i].App.Rule.Name || a[i].App.Anchor != b[i].App.Anchor {
			t.Errorf("entry %d differs", i)
		}
	}
}

// TestPlanCountsEnumerations: the Remark 2 bookkeeping ticks.
func TestPlanCountsEnumerations(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(1, 6))
	s := surfaceWith(t, 6, 8, geom.V(1, 0), geom.V(2, 0), geom.V(1, 1), geom.V(2, 1))
	before := cfg.Counters.CandidateEnumerations.Load()
	planCandidates(&cfg, rules.StandardLibrary(), geom.V(2, 1), s, msg.TierDecreasing, nil, &planBuf{})
	if cfg.Counters.CandidateEnumerations.Load() != before+1 {
		t.Error("enumeration not counted")
	}
}
