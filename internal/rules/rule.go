// Package rules implements the block-motion capabilities of the paper (§IV):
// named rules that pair a Motion Matrix with the list of timed elementary
// moves it performs, the base rules (east sliding, east carrying), their
// closure under the symmetries and rotations the paper invokes, the XML
// serialisation of Fig. 7, and the matching machinery that finds every rule
// application available to a block given its sensed neighbourhood.
//
// # Compiled matching
//
// The Motion/Presence objects of internal/matrix are the display, XML and
// teaching API; the hot validation path never touches them. Each Motion
// Matrix carries a compiled form of the Table II truth table — a pair of
// uint64 masks of the cells that must start occupied / must start empty,
// wildcards masked out, maintained in sync with the code grid — and
// Library.Add snapshots the rule's radius, its mover offsets and, per
// mover, those masks moved into the frame of the sensing window centred on
// the mover.
// Validating a candidate placement is then: build a window bitboard of the
// sensed neighbourhood (WindowAround over an occupancy predicate, or
// Surface.OccWindow extracting words from the lattice row bitsets) and test
// it with two AND/compare word operations. Library.AppendApplicationsOn
// reads a block's whole sensing window once and tests every placement
// against it. Rules whose matrices exceed 64 cells fall back to the
// reference entry-wise operator, which stays pinned to the compiled matcher
// by a differential property test.
package rules

import (
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/matrix"
)

// Move is one elementary displacement inside a capability: the block at
// relative offset From (from the rule centre) moves to To at logical time
// Time. Matches the <motion time=... from=... to=.../> elements of Fig. 7.
type Move struct {
	Time     int
	From, To geom.Vec
}

// Delta returns the displacement To - From.
func (m Move) Delta() geom.Vec { return m.To.Sub(m.From) }

// String implements fmt.Stringer.
func (m Move) String() string {
	return fmt.Sprintf("t%d:%s->%s", m.Time, m.From, m.To)
}

// Rule is a motion capability: a Motion Matrix plus its elementary moves.
// A Rule is immutable after construction; Transform returns new rules.
type Rule struct {
	Name  string
	MM    *matrix.Motion
	Moves []Move
}

// New builds a rule and validates its internal consistency.
func New(name string, mm *matrix.Motion, moves []Move) (*Rule, error) {
	r := &Rule{Name: name, MM: mm, Moves: append([]Move(nil), moves...)}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// MustNew is New that panics on error, for the built-in rule tables.
func MustNew(name string, mm *matrix.Motion, moves []Move) *Rule {
	r, err := New(name, mm, moves)
	if err != nil {
		panic(err)
	}
	return r
}

// Validate checks that the rule's moves are exactly the motions its Motion
// Matrix announces: every "becomes empty" cell (4) is left once and never
// entered, every "becomes occupied" cell (3) is entered once and never left,
// every "handover" cell (5) is both left and entered (a new block occupies
// immediately the abandoned cell), and every move is a one-cell straight
// step, the only motion the technology allows (§IV).
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("rules: rule has empty name")
	}
	if r.MM == nil {
		return fmt.Errorf("rules: rule %q has no motion matrix", r.Name)
	}
	if len(r.Moves) == 0 {
		return fmt.Errorf("rules: rule %q has no moves", r.Name)
	}
	from := map[geom.Vec]int{}
	to := map[geom.Vec]int{}
	for _, m := range r.Moves {
		if m.Time < 0 {
			return fmt.Errorf("rules: rule %q move %v has negative time", r.Name, m)
		}
		if !r.MM.InRange(m.From) || !r.MM.InRange(m.To) {
			return fmt.Errorf("rules: rule %q move %v leaves the matrix", r.Name, m)
		}
		if !m.Delta().IsUnitStep() {
			return fmt.Errorf("rules: rule %q move %v is not a straight one-cell step", r.Name, m)
		}
		from[m.From]++
		to[m.To]++
	}
	radius := r.MM.Radius()
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			v := geom.V(dx, dy)
			wantFrom, wantTo := 0, 0
			switch r.MM.At(v) {
			case event.BecomesEmpty:
				wantFrom = 1
			case event.BecomesOccupied:
				wantTo = 1
			case event.Handover:
				wantFrom, wantTo = 1, 1
			}
			if from[v] != wantFrom {
				return fmt.Errorf("rules: rule %q cell %v code %v: %d departures, want %d",
					r.Name, v, r.MM.At(v), from[v], wantFrom)
			}
			if to[v] != wantTo {
				return fmt.Errorf("rules: rule %q cell %v code %v: %d arrivals, want %d",
					r.Name, v, r.MM.At(v), to[v], wantTo)
			}
		}
	}
	return nil
}

// Movers returns the relative offsets of the blocks that move under this
// rule, in deterministic (move list) order.
func (r *Rule) Movers() []geom.Vec {
	out := make([]geom.Vec, 0, len(r.Moves))
	seen := map[geom.Vec]bool{}
	for _, m := range r.Moves {
		if !seen[m.From] {
			seen[m.From] = true
			out = append(out, m.From)
		}
	}
	return out
}

// MoveOf returns the move whose origin is the given offset, if any.
func (r *Rule) MoveOf(from geom.Vec) (Move, bool) {
	for _, m := range r.Moves {
		if m.From == from {
			return m, true
		}
	}
	return Move{}, false
}

// IsCarrying reports whether the rule moves more than one block
// simultaneously (the "important family" of §IV, e.g. east carrying).
func (r *Rule) IsCarrying() bool { return len(r.Moves) > 1 }

// AppliesTo reports whether the rule validates against the given Presence
// Matrix (the MM⊗MP operator of the paper).
func (r *Rule) AppliesTo(mp *matrix.Presence) bool { return matrix.Overlap(r.MM, mp) }

// MatchesWindow reports whether the rule validates against an occupancy
// window bitboard (as produced by WindowAround or a WindowSource) — the
// compiled MM⊗MP: two word operations, no allocation. Only meaningful when
// r.MM.Compact() holds; every built-in rule is compact.
func (r *Rule) MatchesWindow(window uint64) bool { return matrix.MatchWindow(r.MM, window) }

// Transform returns the rule moved through the D4 element t, renamed to
// newName. This is how the paper obtains rule variants "via symmetry or
// rotation of a selected block motion" (§IV, Fig. 4).
func (r *Rule) Transform(t geom.Transform, newName string) *Rule {
	moves := make([]Move, len(r.Moves))
	for i, m := range r.Moves {
		moves[i] = Move{Time: m.Time, From: t.Apply(m.From), To: t.Apply(m.To)}
	}
	return MustNew(newName, r.MM.Transform(t), moves)
}

// Equivalent reports whether two rules have identical matrices and move sets
// (names aside). Used to deduplicate the symmetry closure.
func (r *Rule) Equivalent(o *Rule) bool {
	if !r.MM.Equal(o.MM) || len(r.Moves) != len(o.Moves) {
		return false
	}
	a := append([]Move(nil), r.Moves...)
	b := append([]Move(nil), o.Moves...)
	less := func(s []Move) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Time != s[j].Time {
				return s[i].Time < s[j].Time
			}
			if s[i].From != s[j].From {
				return s[i].From.Less(s[j].From)
			}
			return s[i].To.Less(s[j].To)
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (r *Rule) String() string {
	return fmt.Sprintf("rule %q (%dx%d, %d moves)", r.Name, r.MM.Size(), r.MM.Size(), len(r.Moves))
}
