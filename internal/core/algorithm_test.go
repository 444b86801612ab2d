package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func fig10(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFig10Reconfiguration is experiment E8: the paper's §V-D example. The
// run must terminate with a block on O and the 11-cell shortest column
// standing; the move count must be in the same regime as the paper's 55
// block moves (our measured choreography differs because the initial blob
// layout is not published; see scenario.Fig10).
func TestFig10Reconfiguration(t *testing.T) {
	s := fig10(t)
	rec := trace.NewRecorder(s.Surface, s.Input, s.Output, false)
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1), core.WithObserver(rec)).
		Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Success || !res.PathBuilt {
		t.Fatalf("Fig. 10 failed: %v\n%s", res, trace.Render(s.Surface, s.Input, s.Output))
	}
	if res.Blocks != 12 || res.PathLength != 10 {
		t.Errorf("instance shape: %v", res)
	}
	// The built path is the straight 11-cell column.
	if d := core.OccupiedDistance(s.Surface, s.Input, s.Output); d != 10 {
		t.Errorf("occupied distance = %d, want 10", d)
	}
	// Same order of magnitude as the paper's 55 block moves.
	if res.Hops < 20 || res.Hops > 300 {
		t.Errorf("hops = %d, outside the plausible regime around the paper's 55", res.Hops)
	}
	// The choreography needs carrying rules (the #5-carries-#9 episode).
	if rec.CarrySteps() == 0 {
		t.Error("no carrying steps recorded; the corner crossing requires carries")
	}
	// The stranded-helper accounting of Lemma 1(f): 11 of 12 blocks end on
	// the path, one remains as the final support.
	if res.MessagesDropped != 0 {
		t.Errorf("dropped %d messages", res.MessagesDropped)
	}
	onPath := len(core.ShortestOccupiedPath(s.Surface, s.Input, s.Output))
	if onPath != 11 {
		t.Errorf("path cells = %d, want 11", onPath)
	}
}

// TestFig10Deterministic: identical seeds give identical runs; different
// seeds perturb message timing but not the outcome (the election winners
// are timing-independent by construction).
func TestFig10Deterministic(t *testing.T) {
	run := func(seed int64) core.Result {
		s := fig10(t)
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(seed)).Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a1, a2 := run(7), run(7)
	if a1.Events != a2.Events || a1.Hops != a2.Hops || a1.Rounds != a2.Rounds ||
		a1.MessagesSent != a2.MessagesSent || a1.VirtualTime != a2.VirtualTime {
		t.Errorf("same seed diverged: %v vs %v", a1, a2)
	}
	b := run(99)
	if b.Hops != a1.Hops || b.Rounds != a1.Rounds {
		t.Errorf("outcome depends on timing seed: %v vs %v", a1, b)
	}
}

// TestFig10TieBreakModes: both tie-break policies solve the instance.
func TestFig10TieBreakModes(t *testing.T) {
	for _, mode := range []election.TieBreak{election.TieLowestID, election.TieRandom} {
		s := fig10(t)
		cfg := s.Config()
		cfg.TieBreak = mode
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, cfg)
		if err != nil || !res.Success || !res.PathBuilt {
			t.Errorf("tie-break %v failed: %v err=%v", mode, res, err)
		}
	}
}

// TestFig10AsyncEquivalence (experiment A3): the same BlockCode on the
// goroutine runtime reaches the same final configuration with the same
// number of hops — election winners are timing-independent, so the two
// engines must agree move for move.
func TestFig10AsyncEquivalence(t *testing.T) {
	des := fig10(t)
	desRes, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), des.Surface, des.Config())
	if err != nil {
		t.Fatal(err)
	}
	async := fig10(t)
	asyncRes, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(1)).Run(context.Background(), async.Surface, async.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !asyncRes.Success || !asyncRes.PathBuilt {
		t.Fatalf("async failed: %v", asyncRes)
	}
	if asyncRes.Hops != desRes.Hops || asyncRes.Rounds != desRes.Rounds {
		t.Errorf("engines disagree: DES %v vs async %v", desRes, asyncRes)
	}
	// Identical final occupancy.
	for y := 0; y < des.Surface.Height(); y++ {
		for x := 0; x < des.Surface.Width(); x++ {
			v := geom.V(x, y)
			if des.Surface.Occupied(v) != async.Surface.Occupied(v) {
				t.Errorf("final occupancy differs at %v", v)
			}
		}
	}
}

// TestAblationCarryingRequired (A1): without the carrying family the corner
// crossing of Fig. 10 is impossible and the run fails.
func TestAblationCarryingRequired(t *testing.T) {
	s := fig10(t)
	cfg := s.Config()
	cfg.MaxRounds = 400 // fail fast: the instance needs carries early
	res, err := core.NewEngine(rules.SlidingOnlyLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Success {
		t.Errorf("sliding-only run should fail on Fig. 10: %v", res)
	}
}

// TestAblationStrictEq8 (A2): the literal eq. (8) freezes the blocks that
// must deliver the final hop into O, so the run cannot complete — the
// reason the default scopes freezing to the I-O rectangle.
func TestAblationStrictEq8(t *testing.T) {
	s := fig10(t)
	cfg := s.Config()
	cfg.StrictEq8 = true
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Success {
		t.Errorf("strict eq. (8) should wedge the endgame: %v", res)
	}
}

// TestAblationRetreatRequired: without the escape tier the greedy dynamics
// wedge long before the column is complete.
func TestAblationRetreatRequired(t *testing.T) {
	s := fig10(t)
	cfg := s.Config()
	cfg.AllowRetreat = false
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Success {
		t.Errorf("no-retreat run should fail: %v", res)
	}
}

// TestAblationVetoRequired: both disabling the blocking guard and using
// only the literal line rule let the system move into dead states.
func TestAblationVetoRequired(t *testing.T) {
	for _, mode := range []core.VetoMode{core.VetoNone, core.VetoLine} {
		s := fig10(t)
		cfg := s.Config()
		cfg.Veto = mode
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Success {
			t.Errorf("veto mode %v unexpectedly solved Fig. 10: %v", mode, res)
		}
	}
}

// TestDegenerateSingleCellInstance: I == O terminates immediately.
func TestDegenerateSingleCellInstance(t *testing.T) {
	s, err := scenario.New("degenerate", 4, 4,
		[]geom.Vec{geom.V(1, 1), geom.V(2, 1), geom.V(1, 2)}, geom.V(1, 1), geom.V(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Hops != 0 {
		t.Errorf("degenerate instance: %v", res)
	}
}

// TestTowerScales: the tower family completes at several sizes (the
// workload of the complexity sweeps).
func TestTowerScales(t *testing.T) {
	scs, err := scenario.TowerSweep([]int{8, 12, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scs {
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
		if err != nil || !res.Success || !res.PathBuilt {
			t.Errorf("%s: %v err=%v", s.Name, res, err)
		}
		if res.MessagesDropped != 0 {
			t.Errorf("%s: dropped %d messages", s.Name, res.MessagesDropped)
		}
	}
}

// TestGreedyEnvelopeCharacterization documents the known limitation of the
// paper's greedy election (sbbench -exp envelope): blobs wider than
// the column-adjacent families livelock and the Root gives up. This is a
// characterization test: if a future planner improvement makes these pass,
// the expectations here should be flipped and the docs updated.
func TestGreedyEnvelopeCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("slow characterization")
	}
	var blocks []geom.Vec
	for y := 0; y < 4; y++ {
		for x := 1; x <= 3; x++ {
			blocks = append(blocks, geom.V(x, y))
		}
	}
	s, err := scenario.New("tri-wide", 8, 14, blocks, geom.V(2, 0), geom.V(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	cfg.MaxRounds = 600
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Success {
		t.Log("three-wide blob now solves; update the envelope in internal/experiments/envelope.go")
	}
}
