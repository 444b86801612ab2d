package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// oracleCandidate mirrors ownCandidate's bid construction for one block on
// the pristine round-1 surface: distance is the Manhattan hop count to O
// when the block is unfrozen and has at least one admissible decreasing
// move (eq. (9): strict decrease, carried helpers strictly approach, no
// frozen mover), and the priority is the same deterministic tie-break hash
// the protocol stamps.
func oracleCandidate(cfg core.Config, lib *rules.Library, occ func(geom.Vec) bool,
	pos geom.Vec, id lattice.BlockID, round uint32) (election.Candidate, bool) {
	if cfg.Frozen(pos) {
		return election.Candidate{}, false
	}
	hasMove := false
apps:
	for _, app := range lib.ApplicationsFor(pos, occ) {
		mv, ok := app.MoveOf(pos)
		if !ok || mv.To.Manhattan(cfg.Output) >= pos.Manhattan(cfg.Output) {
			continue
		}
		for _, m := range app.Rule.Moves {
			from, to := app.Anchor.Add(m.From), app.Anchor.Add(m.To)
			if cfg.Frozen(from) {
				continue apps
			}
			if from != pos && to.Manhattan(cfg.Output) >= from.Manhattan(cfg.Output) {
				continue apps
			}
		}
		hasMove = true
		break
	}
	if !hasMove {
		return election.Candidate{}, false
	}
	return election.Candidate{
		Cand:     msg.Cand{ID: id, Distance: int32(pos.Manhattan(cfg.Output))},
		Priority: election.PriorityFor(cfg.TieBreak, round, id),
	}, true
}

// TestTruncatedElectionStillElectsGlobalBest pins the aggregation-layer
// contract behind msg.MaxBatch: the per-ack candidate list is truncated to
// the wire bound, but because every fold keeps the top-K in Better order,
// the global best candidate always survives to the Root. The instance is
// large enough that the first election sees far more than MaxBatch
// non-neutral bids, an oracle recomputes the round-1 candidate set from the
// initial surface, and the elected winner must equal the oracle's best.
// The drops themselves must be observable: counted in
// Counters.CandidatesDropped and surfaced in the message-stats event.
func TestTruncatedElectionStillElectsGlobalBest(t *testing.T) {
	s, err := scenario.SlopeStaircase(30, 36)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()

	// Snapshot the pristine surface before the run mutates it.
	type blockCell struct {
		pos geom.Vec
		id  lattice.BlockID
	}
	var cells []blockCell
	occSet := make(map[geom.Vec]bool)
	for _, pos := range s.Surface.Positions() {
		id, ok := s.Surface.BlockAt(pos)
		if !ok {
			t.Fatalf("no block at occupied cell %v", pos)
		}
		cells = append(cells, blockCell{pos, id})
		occSet[pos] = true
	}
	occ := func(v geom.Vec) bool { return occSet[v] }

	var first *core.Event
	var stats *core.Event
	// K is set on a copy: the oracle below reads the serial cfg.
	batchCfg := cfg
	batchCfg.ParallelMoves = 4
	res, err := core.NewEngine(rules.StandardLibrary(),
		core.WithSeed(1),
		core.WithObserver(core.ObserverFunc(func(ev core.Event) {
			switch ev.Kind {
			case core.EventElectionDecided:
				if first == nil {
					e := ev
					first = &e
				}
			case core.EventMessageStats:
				e := ev
				stats = &e
			}
		})),
	).Run(context.Background(), s.Surface, batchCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("run failed after %d rounds", res.Rounds)
	}
	if first == nil {
		t.Fatal("no election decided")
	}

	lib := rules.StandardLibrary()
	best := election.Neutral()
	finite := 0
	for _, c := range cells {
		cand, ok := oracleCandidate(cfg, lib, occ, c.pos, c.id, uint32(first.Round))
		if !ok {
			continue
		}
		finite++
		if cand.Better(best) {
			best = cand
		}
	}
	if finite <= msg.MaxBatch {
		t.Fatalf("instance too small to exercise truncation: %d candidates, need > %d",
			finite, msg.MaxBatch)
	}
	if first.Winner != best.ID {
		t.Errorf("round %d elected block %d, oracle best over %d candidates is block %d",
			first.Round, first.Winner, finite, best.ID)
	}
	if first.Distance != best.Distance {
		t.Errorf("winner bid distance %d, oracle best distance %d", first.Distance, best.Distance)
	}

	// With ~10x more candidates than wire slots, folds must have dropped
	// some — and the drops must be visible, not silent.
	if res.Counters.CandidatesDropped == 0 {
		t.Error("CandidatesDropped = 0, want > 0 on a >MaxBatch-candidate instance")
	}
	if stats == nil {
		t.Fatal("no message-stats event emitted")
	}
	if stats.CandsDropped != uint64(res.Counters.CandidatesDropped) {
		t.Errorf("message-stats event carries CandsDropped=%d, counters say %d",
			stats.CandsDropped, res.Counters.CandidatesDropped)
	}
}
