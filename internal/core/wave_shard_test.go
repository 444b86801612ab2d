package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// waveRun captures everything a batch run can diverge on: the DES metric
// block, the election-winner sequence and the final surface, plus the
// surface's band count.
type waveRun struct {
	res     core.Result
	winners []lattice.BlockID
	final   []string
	bands   int
}

// runWaveScenario runs the built instance at batch width 4 after
// Surface.EnableSharding(bands).
func runWaveScenario(t *testing.T, build func() (*scenario.Scenario, error), bands int) waveRun {
	t.Helper()
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Surface.EnableSharding(bands); err != nil {
		t.Fatal(err)
	}
	var out waveRun
	cfg := s.Config()
	cfg.ParallelMoves = 4
	res, err := core.NewEngine(rules.StandardLibrary(),
		core.WithSeed(1),
		core.WithObserver(core.ObserverFunc(func(ev core.Event) {
			if ev.Kind == core.EventElectionDecided {
				out.winners = append(out.winners, ev.Winner)
			}
		})),
	).Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("batch run failed after %d rounds", res.Rounds)
	}
	out.res = res
	out.bands = s.Surface.ShardCount()
	for _, p := range s.Surface.Positions() {
		out.final = append(out.final, p.String())
	}
	return out
}

// TestWaveShardsBitIdentical pins the sharded connectivity cache under wave
// admission: a Config.ParallelMoves = 4 run on a surface sharded with
// EnableSharding(8) must be bit-identical to the one-band run, because
// sharding replaces only the articulation cache while occupancy (and with it
// every footprint, what-if and cavity verdict the admission ladder takes) is
// always full-surface.
// Compared: event count, hops, rounds, messages, virtual time, the complete
// election-winner sequence and the final surface.
func TestWaveShardsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"slope-staircase", func() (*scenario.Scenario, error) { return scenario.SlopeStaircase(20, 26) }},
		{"wide-ridge", scenario.WideRidge},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mono := runWaveScenario(t, tc.build, 1)
			t.Run("shards", func(t *testing.T) {
				got := runWaveScenario(t, tc.build, 8)
				if mono.bands != 1 || got.bands < 2 {
					t.Fatalf("band counts %d (one band) / %d (sharded)", mono.bands, got.bands)
				}
				if mono.res.Hops != got.res.Hops || mono.res.Rounds != got.res.Rounds ||
					mono.res.Events != got.res.Events ||
					mono.res.MessagesSent != got.res.MessagesSent ||
					mono.res.VirtualTime != got.res.VirtualTime {
					t.Errorf("sharded batch run diverged from one band:\n  one band %+v\n  sharded  %+v",
						mono.res, got.res)
				}
				if len(got.winners) != len(mono.winners) {
					t.Fatalf("saw %d elections, one band had %d", len(got.winners), len(mono.winners))
				}
				for i := range got.winners {
					if got.winners[i] != mono.winners[i] {
						t.Fatalf("election %d elected %d, one band elected %d",
							i, got.winners[i], mono.winners[i])
					}
				}
				if len(got.final) != len(mono.final) {
					t.Fatalf("final surface holds %d cells, one band %d", len(got.final), len(mono.final))
				}
				for i := range got.final {
					if got.final[i] != mono.final[i] {
						t.Fatalf("final cell %d = %s, one band %s", i, got.final[i], mono.final[i])
					}
				}
			})
		})
	}
}
