package core

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/msg"
)

// TestFrozenSameColumnInstance pins eq. (8) semantics on the Fig. 10
// geometry: I=(2,0), O=(2,10), rectangle = the column segment.
func TestFrozenSameColumnInstance(t *testing.T) {
	cfg := NewConfig(geom.V(2, 0), geom.V(2, 10))
	frozen := []geom.Vec{
		geom.V(2, 0),  // I: the Root is pinned
		geom.V(2, 1),  // in-rectangle column cell
		geom.V(2, 10), // O itself
		geom.V(2, 5),
	}
	for _, v := range frozen {
		if !cfg.Frozen(v) {
			t.Errorf("%v should be frozen", v)
		}
	}
	mobile := []geom.Vec{
		geom.V(3, 0),  // beside the column
		geom.V(1, 5),  // west lane
		geom.V(3, 10), // aligned with O's row but outside the rectangle:
		// the cell the final block enters O from ("unless it is at one
		// hop of O")
		geom.V(2, 11), // above O, outside the rectangle
	}
	for _, v := range mobile {
		if cfg.Frozen(v) {
			t.Errorf("%v should not be frozen", v)
		}
	}
}

// TestFrozenGeneralPosition: for an L-shaped instance the rectangle spans
// both coordinates; alignment freezes only inside it.
func TestFrozenGeneralPosition(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(5, 5))
	if !cfg.Frozen(geom.V(5, 2)) || !cfg.Frozen(geom.V(2, 5)) {
		t.Error("in-rectangle aligned cells must freeze")
	}
	if cfg.Frozen(geom.V(5, 7)) || cfg.Frozen(geom.V(7, 5)) {
		t.Error("aligned cells beyond the rectangle must stay mobile by default")
	}
	if cfg.Frozen(geom.V(3, 2)) {
		t.Error("unaligned cells never freeze")
	}
}

// TestFrozenStrictEq8: the literal reading freezes aligned blocks anywhere.
func TestFrozenStrictEq8(t *testing.T) {
	cfg := NewConfig(geom.V(0, 0), geom.V(5, 5))
	cfg.StrictEq8 = true
	if !cfg.Frozen(geom.V(5, 7)) || !cfg.Frozen(geom.V(100, 5)) {
		t.Error("strict eq. (8) must freeze aligned blocks anywhere")
	}
	if cfg.Frozen(geom.V(4, 7)) {
		t.Error("unaligned cells stay mobile under strict eq. (8) too")
	}
}

// TestFrozenIsPositional: freezing depends only on position, never on
// history — the property that lets every block evaluate its neighbours'
// frozenness locally.
func TestFrozenIsPositional(t *testing.T) {
	cfg := NewConfig(geom.V(1, 0), geom.V(4, 6))
	f := func(x, y int8) bool {
		v := geom.V(int(x), int(y))
		return cfg.Frozen(v) == cfg.Frozen(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// And matches its definition.
	rect := geom.RectSpanning(cfg.Input, cfg.Output)
	g := func(x, y int8) bool {
		v := geom.V(int(x), int(y))
		want := v == cfg.Input || (v.AlignedWith(cfg.Output) && rect.Contains(v))
		return cfg.Frozen(v) == want
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestDistanceValue covers eqs. (8)-(10).
func TestDistanceValue(t *testing.T) {
	cfg := NewConfig(geom.V(2, 0), geom.V(2, 10))
	// Eq. (10): plain Manhattan distance for a mobile block with moves.
	if d := cfg.distanceValue(geom.V(4, 3), true); d != 2+7 {
		t.Errorf("d = %d, want 9", d)
	}
	// Eq. (9): no move possible -> infinite.
	if d := cfg.distanceValue(geom.V(4, 3), false); d != msg.InfiniteDistance {
		t.Errorf("moveless block d = %d, want inf", d)
	}
	// Eq. (8): frozen -> infinite even with moves available.
	if d := cfg.distanceValue(geom.V(2, 5), true); d != msg.InfiniteDistance {
		t.Errorf("frozen block d = %d, want inf", d)
	}
}

// TestInitialShortestDistance is eq. (6).
func TestInitialShortestDistance(t *testing.T) {
	cfg := NewConfig(geom.V(2, 0), geom.V(2, 10))
	if got := cfg.InitialShortestDistance(); got != 10 {
		t.Errorf("initial bound = %d, want 10", got)
	}
	cfg = NewConfig(geom.V(1, 2), geom.V(5, 9))
	if got := cfg.InitialShortestDistance(); got != 11 {
		t.Errorf("initial bound = %d, want 11", got)
	}
}

func TestVetoModeStrings(t *testing.T) {
	if VetoLookahead.String() != "lookahead" || VetoLine.String() != "line" || VetoNone.String() != "none" {
		t.Error("veto mode names wrong")
	}
	if VetoMode(9).String() != "VetoMode(9)" {
		t.Error("invalid veto mode name wrong")
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := &Counters{}
	c.DistanceComputations.Add(3)
	c.Elections.Add(2)
	c.EscapeElections.Add(1)
	c.MoveFailures.Add(4)
	c.CandidateEnumerations.Add(5)
	c.DeadEndReports.Add(6)
	c.DeadEndEntries.Add(7)
	c.DeadEndReleases.Add(8)
	c.NeutralAcks.Add(9)
	c.RejectedActivates.Add(10)
	c.RejectedAcks.Add(11)
	c.RootBeginFailures.Add(12)
	c.RootSelfWins.Add(13)
	c.CandidatesDropped.Add(14)
	c.StaleSelects.Add(15)
	c.UnroutedSelects.Add(16)
	c.StaleEntries.Add(17)
	s := c.Snapshot()
	if s.DistanceComputations != 3 || s.Elections != 2 || s.EscapeElections != 1 ||
		s.MoveFailures != 4 || s.CandidateEnumerations != 5 ||
		s.DeadEndReports != 6 || s.DeadEndEntries != 7 || s.DeadEndReleases != 8 || s.DeadEndFloods != 21 ||
		s.NeutralAcks != 9 || s.RejectedActivates != 10 || s.RejectedAcks != 11 ||
		s.RootBeginFailures != 12 || s.RootSelfWins != 13 || s.CandidatesDropped != 14 ||
		s.StaleSelects != 15 || s.UnroutedSelects != 16 || s.StaleEntries != 17 {
		t.Errorf("snapshot = %+v", s)
	}
}
