package core

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/rules"
)

// CandidateMove is one admissible elementary motion for a block: a rule
// application in which the block is a mover, together with the block's own
// destination. Candidates are what eq. (9) quantifies over and what the
// elected block executes.
type CandidateMove struct {
	App rules.Application
	To  geom.Vec // the planning block's destination under App
}

// planCandidates enumerates the block's admissible moves at the given tier,
// using only local information (the sensed occupancy window and knowledge
// of I, O and the freezing rule, which is a pure function of position).
//
// A rule application qualifies when:
//   - the planning block is one of its movers,
//   - the matrix validates against the sensed neighbourhood (MM⊗MP),
//   - no mover is frozen (frozen path blocks must keep their cells; the
//     Root never moves, not even carried),
//   - the planning block's own displacement strictly decreases its hop
//     count to O (TierDecreasing); the TierRetreat escape tier also admits
//     one-step retreats — on the Manhattan grid every hop changes d by
//     exactly ±1, so the only alternative to approaching is retreating
//     (the latitude behind the paper's "tends to diminish the distance"),
//   - the destination is not the `avoid` cell, when given (the block's
//     anti-oscillation memory: a block that just retreated from a cell
//     will not immediately hop back into it).
//
// The result is ordered best-first: nearer destination, then fewer moved
// blocks (a plain slide beats a carry when both reach the same cell, to
// minimise total block moves), then a stable deterministic key.
func planCandidates(cfg *Config, lib *rules.Library, pos geom.Vec, src rules.WindowSource, tier msg.Tier, avoid *geom.Vec, buf *planBuf) []CandidateMove {
	cfg.Counters.CandidateEnumerations.Add(1)
	buf.hasKey = false
	buf.apps = lib.AppendApplicationsOn(buf.apps[:0], pos, src)
	buf.cands = filterCandidates(cfg, buf.cands[:0], buf.apps, pos, tier, avoid)
	return buf.cands
}

// planWindow is planCandidates on the block's sensing window w, already
// read (radius lib.WindowRadius() around pos, which must fit a bitboard).
// A plan's outcome is a function of its planKey alone, since the
// configuration and the library are fixed for a run, so when the key equals
// the last plan's on the same buffer planWindow returns that plan's list
// without matching the rule placements again. It counts a planning pass
// either way.
func planWindow(cfg *Config, lib *rules.Library, pos geom.Vec, w uint64, tier msg.Tier, avoid *geom.Vec, buf *planBuf) []CandidateMove {
	cfg.Counters.CandidateEnumerations.Add(1)
	key := planKey{pos: pos, win: w, tier: tier}
	if avoid != nil {
		key.avoid, key.hasAvoid = *avoid, true
	}
	if buf.hasKey && key == buf.key {
		return buf.cands
	}
	buf.key, buf.hasKey = key, true
	buf.apps = lib.AppendApplicationsIn(buf.apps[:0], pos, w)
	buf.cands = filterCandidates(cfg, buf.cands[:0], buf.apps, pos, tier, avoid)
	return buf.cands
}

// planKey is what a plan reads besides the run's configuration and
// library: the block's position, its sensing window, the tier and the
// no-return cell, if any.
type planKey struct {
	pos, avoid geom.Vec
	win        uint64
	tier       msg.Tier
	hasAvoid   bool
}

// planBuf holds the applications and candidates of a plan, and the key
// they were planned from when planWindow planned them. planCandidates and
// planWindow append into it, so a warm plan allocates nothing, and the list
// they return is valid until the next plan on the same buffer.
type planBuf struct {
	apps   []rules.Application
	cands  []CandidateMove
	key    planKey
	hasKey bool
}

// sensed reads a block's sensing window as a rules.WindowSource for a
// library whose window does not fit a bitboard: windows through
// Env.SenseWindow, one per rule placement, and single cells (the fallback
// for rules wider than a bitboard) through Env.Sense.
type sensed struct{ env exec.Env }

func (s *sensed) OccWindow(anchor geom.Vec, radius int) uint64 {
	return s.env.SenseWindow(anchor, radius)
}

func (s *sensed) Occupied(v geom.Vec) bool { return s.env.Sense(v) }

// admissibleMove applies the tier/freeze/avoid admissibility rules of
// eq. (9) to one physics-valid application, without allocating: the moves
// are read straight off the rule rather than through AbsMoves.
func admissibleMove(cfg *Config, app rules.Application, pos geom.Vec, tier msg.Tier, avoid *geom.Vec) (CandidateMove, bool) {
	mv, ok := app.MoveOf(pos)
	if !ok {
		return CandidateMove{}, false
	}
	d0 := pos.Manhattan(cfg.Output)
	d1 := mv.To.Manhattan(cfg.Output)
	if tier == msg.TierDecreasing && d1 >= d0 {
		return CandidateMove{}, false
	}
	if avoid != nil && mv.To == *avoid {
		return CandidateMove{}, false
	}
	for _, m := range app.Rule.Moves {
		from, to := app.Anchor.Add(m.From), app.Anchor.Add(m.To)
		if cfg.Frozen(from) {
			// Frozen path blocks keep their cells; the Root never moves,
			// not even carried.
			return CandidateMove{}, false
		}
		if from != pos && to.Manhattan(cfg.Output) >= from.Manhattan(cfg.Output) {
			// A carried helper must strictly approach O too. Without this, a
			// block can "shove" a neighbour backwards as an unwilling
			// helper, and two blocks shoving each other over a contested
			// cell livelock the system (each sees its own distance decrease
			// while undoing the other's hop).
			return CandidateMove{}, false
		}
	}
	return CandidateMove{App: app, To: mv.To}, true
}

// hasAdmissibleOn reports whether the block at pos has any admissible move
// at the given tier, streaming the physics-valid applications into a reused
// buffer: the blocking veto asks this once per mobile block per vetoed
// candidate, so the probe must not allocate once the buffer is warm.
func hasAdmissibleOn(cfg *Config, lib *rules.Library, pos geom.Vec, src rules.WindowSource, tier msg.Tier, buf *[]rules.Application) bool {
	*buf = lib.AppendApplicationsOn((*buf)[:0], pos, src)
	for _, app := range *buf {
		if _, ok := admissibleMove(cfg, app, pos, tier, nil); ok {
			return true
		}
	}
	return false
}

// filterCandidates applies the admissibility rules of eq. (9) to the
// physics-valid applications, appends the survivors to dst and orders them
// best-first.
func filterCandidates(cfg *Config, dst []CandidateMove, apps []rules.Application, pos geom.Vec, tier msg.Tier, avoid *geom.Vec) []CandidateMove {
	for _, app := range apps {
		if mv, ok := admissibleMove(cfg, app, pos, tier, avoid); ok {
			dst = append(dst, mv)
		}
	}
	slices.SortStableFunc(dst, func(a, b CandidateMove) int {
		// 1. Joining the path beats everything: a block that freezes onto
		//    a path cell leaves the mobile pool for good (eq. (8)).
		if fa, fb := cfg.Frozen(a.To), cfg.Frozen(b.To); fa != fb {
			if fa {
				return -1
			}
			return 1
		}
		// 2. Nearer destination.
		if c := cmp.Compare(a.To.Manhattan(cfg.Output), b.To.Manhattan(cfg.Output)); c != 0 {
			return c
		}
		// 3. Fewer moved blocks (a slide beats a carry to the same cell).
		if c := cmp.Compare(len(a.App.Rule.Moves), len(b.App.Rule.Moves)); c != 0 {
			return c
		}
		// 4. Stable deterministic key.
		if c := strings.Compare(a.App.Rule.Name, b.App.Rule.Name); c != 0 {
			return c
		}
		switch {
		case a.App.Anchor.Less(b.App.Anchor):
			return -1
		case b.App.Anchor.Less(a.App.Anchor):
			return 1
		}
		return 0
	})
	return dst
}
