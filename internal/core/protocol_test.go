package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestElectionActivatesEveryBlock: in a connected ensemble every election
// round engages every non-Root block exactly once, so the total number of
// distance computations equals rounds x (N-1). This is the structural
// invariant behind Remark 2's accounting.
func TestElectionActivatesEveryBlock(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(res.Rounds) * int64(res.Blocks-1)
	if res.Counters.DistanceComputations != want {
		t.Errorf("distance computations = %d, want rounds*(N-1) = %d",
			res.Counters.DistanceComputations, want)
	}
}

// TestHealthyElectionsEchoEveryRedundantActivate: on healthy runs of
// both backends — fig10, and slope top=30 at k = 1, 4 and 16 — every
// redundant Activate crosses the Activate it acknowledges, so no block
// sends a neutral Ack and every Ack is the one father-ack of a block
// engaged in its round: Acks equal distance computations. No protocol
// fault is counted either, and no Select or GO entry arrives in a round
// other than its receiver's or misses its route.
func TestHealthyElectionsEchoEveryRedundantActivate(t *testing.T) {
	for _, backend := range []struct {
		name string
		f    core.BackendFactory
	}{{"des", core.DES}, {"async", core.Async}} {
		for _, c := range []struct {
			name string
			k    int
		}{{"fig10", 1}, {"slope", 1}, {"slope", 4}, {"slope", 16}} {
			t.Run(fmt.Sprintf("%s/%s/k=%d", backend.name, c.name, c.k), func(t *testing.T) {
				s, err := scenario.Fig10()
				if c.name == "slope" {
					s, err = scenario.Build("slope", scenario.Params{"top": 30})
				}
				if err != nil {
					t.Fatal(err)
				}
				cfg := s.Config()
				cfg.ParallelMoves = c.k
				res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(backend.f)).
					Run(context.Background(), s.Surface, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Success {
					t.Fatalf("run failed: %v", res)
				}
				ctr := res.Counters
				if ctr.NeutralAcks != 0 || ctr.RejectedActivates != 0 || ctr.RejectedAcks != 0 ||
					ctr.RootBeginFailures != 0 || ctr.RootSelfWins != 0 ||
					ctr.StaleSelects != 0 || ctr.UnroutedSelects != 0 || ctr.StaleEntries != 0 {
					t.Errorf("counters %+v, want no neutral ack and no protocol fault", ctr)
				}
				if acks := res.MessagesByType[msg.TypeAck]; acks != uint64(ctr.DistanceComputations) {
					t.Errorf("%d Acks, want one per distance computation, %d", acks, ctr.DistanceComputations)
				}
			})
		}
	}
}

// TestMessageConservation: the election protocol's message flow is
// self-consistent — everything sent is delivered (transfer-at-send ports,
// no drops in a healthy run).
func TestMessageConservation(t *testing.T) {
	scs, err := scenario.TowerSweep([]int{12})
	if err != nil {
		t.Fatal(err)
	}
	s := scs[0]
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(3)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped != 0 {
		t.Errorf("dropped %d messages in a healthy run", res.MessagesDropped)
	}
	if !res.Success {
		t.Fatalf("run failed: %v", res)
	}
}

// TestEscapeRoundsAreCounted: Fig. 10 needs escape rounds (the greedy tier
// alone wedges), and the counter records them.
func TestEscapeRoundsAreCounted(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.EscapeElections == 0 {
		t.Error("Fig. 10 should need escape rounds; counter is zero")
	}
	if res.Counters.EscapeElections >= int64(res.Rounds) {
		t.Errorf("escape rounds %d should be a minority of %d",
			res.Counters.EscapeElections, res.Rounds)
	}
}

// TestVirtualTimeAdvances: the DES reports a plausible virtual completion
// time (at least one link latency per round).
func TestVirtualTimeAdvances(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.VirtualTime) < 500*int64(res.Rounds) {
		t.Errorf("virtual time %d too small for %d rounds", res.VirtualTime, res.Rounds)
	}
	if res.Events == 0 {
		t.Error("no events processed")
	}
}

// TestMaxRoundsCapRespected: a tiny round budget makes the Root give up
// cleanly (termination report with success=false, no wedge).
func TestMaxRoundsCapRespected(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	cfg.MaxRounds = 5
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatalf("capped run must still terminate cleanly: %v", err)
	}
	if res.Success {
		t.Error("5 rounds cannot complete Fig. 10")
	}
	if res.Rounds > 5 {
		t.Errorf("rounds = %d exceeded the cap", res.Rounds)
	}
}

// TestOutcomeIndependentOfLatencyModel: fixed vs jittered link latencies
// change event timing wholesale, yet the move sequence is identical —
// the strongest in-engine evidence that only Assumption 3 (finite delays)
// matters.
func TestOutcomeIndependentOfLatencyModel(t *testing.T) {
	run := func(lat sim.LatencyModel) core.Result {
		s, err := scenario.Fig10()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(9), core.WithLatency(lat)).
			Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed := run(sim.FixedLatency(1000))
	jitterNarrow := run(sim.UniformLatency{Min: 10, Max: 20})
	jitterWide := run(sim.UniformLatency{Min: 1, Max: 10_000})
	for _, r := range []core.Result{fixed, jitterNarrow, jitterWide} {
		if !r.Success || r.Hops != fixed.Hops || r.Rounds != fixed.Rounds {
			t.Errorf("latency model changed the outcome: %v vs %v", r, fixed)
		}
	}
}
