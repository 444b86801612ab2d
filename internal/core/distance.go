package core

import (
	"repro/internal/geom"
	"repro/internal/msg"
)

// Frozen implements the positional part of eq. (8): a block aligned with
// the output O (same row or same column) must keep its position "till the
// end of the distributed iterative process" — it is part of the path being
// built and reports d = +inf so it is never elected (and never serves as a
// carrying helper).
//
// By default the rule applies inside the closed I–O rectangle, the region
// of the paper's oriented graph G (§III); with StrictEq8 it applies
// everywhere, which is the literal reading of eq. (8).
func (c *Config) Frozen(pos geom.Vec) bool {
	if pos == c.Input {
		// The Root is pinned on I: position I is the first cell of the
		// path (Lemma 1(b)) and the Root coordinates every election.
		return true
	}
	if !pos.AlignedWith(c.Output) {
		return false
	}
	if c.StrictEq8 {
		return true
	}
	return geom.RectSpanning(c.Input, c.Output).Contains(pos)
}

// InitialShortestDistance is eq. (6): the election's starting bound, the
// Manhattan distance between I and O.
func (c Config) InitialShortestDistance() int32 {
	return int32(c.Input.Manhattan(c.Output))
}

// distanceValue evaluates d(B,O) for a block at pos per eqs. (8)–(10),
// given whether the block currently has any admissible move (eq. (9)):
//
//	d = +inf  if the block is frozen by eq. (8) (alignment / Root pinning),
//	d = +inf  if no move is possible for the block,
//	d = |O.x - B.x| + |O.y - B.y|  otherwise.
func (c *Config) distanceValue(pos geom.Vec, hasMove bool) int32 {
	if c.Frozen(pos) {
		return msg.InfiniteDistance
	}
	if !hasMove {
		return msg.InfiniteDistance
	}
	return int32(pos.Manhattan(c.Output))
}
