package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// TestFig10ShardsBitIdentical: column-band sharding changes where
// connectivity verdicts are computed, never what they are — so the sharded
// Fig. 10 run must be bit-identical to the monolithic one, down to the
// event count and virtual time, and keep the benchmarked 109 block moves
// (the block_moves metric gated by benchdiff since BENCH_4.json).
func TestFig10ShardsBitIdentical(t *testing.T) {
	run := func(bands int) core.Result {
		s := fig10(t)
		if err := s.Surface.EnableSharding(bands); err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).
			Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Surface.ShardCount(); got != bands {
			t.Fatalf("surface has %d bands, want %d", got, bands)
		}
		return res
	}
	mono := run(1)
	sharded := run(4)
	if mono.Events != sharded.Events || mono.Hops != sharded.Hops ||
		mono.Rounds != sharded.Rounds || mono.MessagesSent != sharded.MessagesSent ||
		mono.VirtualTime != sharded.VirtualTime {
		t.Errorf("sharded run diverged from monolithic:\n  mono    %+v\n  sharded %+v", mono, sharded)
	}
	if mono.Hops != 109 || sharded.Hops != 109 {
		t.Errorf("block moves = %d (mono) / %d (sharded), want the benchmarked 109",
			mono.Hops, sharded.Hops)
	}
}

// TestGoldenDifferentialWithShards replays every DES golden run of
// testdata/serial_golden.json over three column bands
// (Surface.EnableSharding(3)): the election-winner sequence, round/hop
// totals and final surface must match the recorded monolithic protocol
// exactly.
func TestGoldenDifferentialWithShards(t *testing.T) {
	data, err := os.ReadFile("testdata/serial_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var runs []goldenRun
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, g := range runs {
		if g.Backend != "des" {
			continue
		}
		replayed++
		g := g
		t.Run(fmt.Sprintf("%s/seed=%d", g.Scenario, g.Seed), func(t *testing.T) {
			s := goldenScenario(t, g.Scenario)
			if err := s.Surface.EnableSharding(3); err != nil {
				t.Fatal(err)
			}
			cfg := s.Config()
			cfg.ParallelMoves = 1
			var winners []lattice.BlockID
			res, err := core.NewEngine(rules.StandardLibrary(),
				core.WithSeed(g.Seed),
				core.WithObserver(core.ObserverFunc(func(ev core.Event) {
					if ev.Kind == core.EventElectionDecided {
						winners = append(winners, ev.Winner)
					}
				})),
			).Run(context.Background(), s.Surface, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.Surface.ShardCount() != 3 {
				t.Fatalf("surface has %d bands, want 3", s.Surface.ShardCount())
			}
			if res.Success != g.Success || res.Rounds != g.Rounds || res.Hops != g.Hops {
				t.Errorf("diverged from golden: success=%t rounds=%d hops=%d, want %t/%d/%d",
					res.Success, res.Rounds, res.Hops, g.Success, g.Rounds, g.Hops)
			}
			if len(winners) != len(g.Winners) {
				t.Fatalf("saw %d elections, golden has %d", len(winners), len(g.Winners))
			}
			for i := range winners {
				if winners[i] != g.Winners[i] {
					t.Fatalf("election %d elected %d, golden elected %d", i, winners[i], g.Winners[i])
				}
			}
			var final []string
			for _, p := range s.Surface.Positions() {
				final = append(final, p.String())
			}
			if len(final) != len(g.Final) {
				t.Fatalf("final surface holds %d cells, want %d", len(final), len(g.Final))
			}
			for i := range final {
				if final[i] != g.Final[i] {
					t.Fatalf("final cell %d = %s, want %s", i, final[i], g.Final[i])
				}
			}
		})
	}
	if replayed == 0 {
		t.Fatal("golden file holds no DES runs to replay")
	}
}

// TestRingAnswersRemark1 pins where a batch run's connectivity verdicts come
// from. On slope top=30 at k=16 (seed 1) the mover's 3×3 ring, rung 0 of the
// lattice's ladder, answers nine in ten motion verdicts and wave steps and
// three in four cut-vertex queries. The bounded search answers almost every
// cut-vertex query the ring leaves on a stale cache, so at most five reach a
// band core. The run thus makes far fewer Tarjan band passes than the 418 it
// made before the ring and the 58 it made before the search (cached and
// what-if passes alike), and it keeps its 48 rounds and 333 hops.
func TestRingAnswersRemark1(t *testing.T) {
	s, err := scenario.SlopeStaircase(30, 36)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	cfg.ParallelMoves = 16
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).
		Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 48 || res.Hops != 333 {
		t.Fatalf("rounds %d, hops %d; want 48 and 333", res.Rounds, res.Hops)
	}
	c := res.Conn
	for _, k := range []struct {
		name     string
		r        lattice.Rungs
		num, den int // the ring must answer at least num/den of them
	}{
		{"motion verdicts", c.Moves, 9, 10},
		{"wave steps", c.WaveSteps, 9, 10},
		{"cut-vertex queries", c.CutVertices, 3, 4},
	} {
		total := k.r.Ring + k.r.Search + k.r.Band + k.r.Overlay
		if total == 0 || k.r.Ring*k.den < total*k.num {
			t.Errorf("%s: the ring answered %d of %d, want at least %d/%d", k.name, k.r.Ring, total, k.num, k.den)
		}
	}
	if cv := c.CutVertices; cv.Search == 0 || cv.Band > 5 {
		t.Errorf("cut-vertex queries: the search answered %d and band cores %d, want the search used and at most 5 band answers",
			cv.Search, cv.Band)
	}
	if c.Rebuilds == 0 || c.Rebuilds > 30 {
		t.Errorf("%d Tarjan band passes, want between 1 and 30", c.Rebuilds)
	}
	if c.CavityScans == 0 {
		t.Error("no cavity scans counted on a batch run")
	}
}
