// Package dsterm implements the per-node bookkeeping of the Dijkstra &
// Scholten termination-detection procedure for diffusing computations
// (Inf. Proc. Letters 1980), the foundation of the paper's distributed
// election (§V-C): the Root starts the computation by activating its
// neighbours; every activation message must eventually be acknowledged; a
// node acknowledges its father only after all of its own activations have
// been acknowledged; when the Root's deficit reaches zero, every node has
// disengaged and the computation has terminated. Two activations that
// cross on one edge may acknowledge each other (see Redundant).
//
// The package is transport-agnostic: callers move messages however they
// like (the DES engine, goroutine channels, or in-process queues in tests)
// and feed arrivals to the Tracker, which answers what the protocol
// requires next. Value aggregation (the election's ShortestDistance and
// IDshortest folding) stays with the caller.
package dsterm

import (
	"errors"
	"fmt"
)

// Errors reported on protocol violations; seeing one means the transport or
// the caller broke a Dijkstra–Scholten invariant, never normal operation.
var (
	ErrNotEngaged   = errors.New("dsterm: event on a disengaged node")
	ErrOverAcked    = errors.New("dsterm: more acknowledgements than activations")
	ErrWrongRound   = errors.New("dsterm: event for a different round")
	ErrReengagement = errors.New("dsterm: node engaged twice in one round")
)

// Classification describes how an incoming activation relates to the node's
// engagement state.
type Classification int

const (
	// Engaged: first activation of this round; the sender becomes the
	// node's father and the node must now activate its other neighbours.
	Engaged Classification = iota
	// Redundant: the node already engaged in this round (the "if an active
	// block receives an activation message from a neighbor, then it does
	// nothing" case). On a graph that holds still during the round, the
	// sender engaged before the node's own activation reached it, so the
	// two activations cross on their edge: the caller counts the sender's
	// as the acknowledgement of its own activation to the sender (OnAck)
	// and sends nothing, and the sender does the same (Chang's echo
	// algorithm, IEEE TSE 1982). An activation that crossed none — the
	// node did not activate the sender — must be acknowledged at once with
	// a neutral ack, so the sender's deficit clears.
	Redundant
	// Stale: the activation belongs to an earlier round (possible only if
	// the transport reorders across rounds); it must be acknowledged
	// neutrally and otherwise ignored.
	Stale
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case Engaged:
		return "engaged"
	case Redundant:
		return "redundant"
	case Stale:
		return "stale"
	}
	return fmt.Sprintf("Classification(%d)", int(c))
}

// Tracker carries one node's Dijkstra–Scholten state. The zero value is an
// idle node that has never engaged. Trackers are not safe for concurrent
// use; each block's callbacks are already serialised by the engines.
type Tracker[ID comparable] struct {
	round   uint32
	engaged bool
	isRoot  bool
	father  ID
	deficit int
	started bool // true once the tracker saw any round
}

// BeginRoot engages the node as the root of a new diffusing computation.
func (t *Tracker[ID]) BeginRoot(round uint32) error {
	if t.engaged {
		return fmt.Errorf("%w: root still engaged in round %d", ErrReengagement, t.round)
	}
	t.round = round
	t.engaged = true
	t.isRoot = true
	t.deficit = 0
	t.started = true
	var zero ID
	t.father = zero
	return nil
}

// OnActivate classifies an incoming activation for the given round from
// node `from`. When it returns Engaged, the caller must activate its other
// neighbours and then call RecordSent with the count.
//
// A node engages at most once per round: late activations arriving after
// the node already participated (engaged and possibly disengaged) in the
// round are Redundant, and acknowledged by the crossing activation or a
// neutral ack. Classic Dijkstra–Scholten would re-engage such a node; for
// a single-shot election per round the node's contribution has already
// been folded into its first father-ack, and either acknowledgement
// preserves the termination guarantee (every activation is acknowledged,
// and a node still acknowledges its father only after all of its own
// activations are acknowledged).
func (t *Tracker[ID]) OnActivate(round uint32, from ID) (Classification, error) {
	switch {
	case t.started && round < t.round:
		return Stale, nil
	case t.started && round == t.round:
		return Redundant, nil
	case t.engaged:
		// A higher round while engaged means the previous round never
		// terminated at this node: a protocol violation, since the root
		// only starts round k+1 after round k's global termination.
		return Stale, fmt.Errorf("%w: activation for round %d while engaged in %d",
			ErrWrongRound, round, t.round)
	}
	t.round = round
	t.engaged = true
	t.isRoot = false
	t.father = from
	t.deficit = 0
	t.started = true
	return Engaged, nil
}

// RecordSent adds n freshly sent activations to the node's deficit. It
// returns true when the node's deficit is zero, i.e. it can already
// acknowledge its father (a leaf with no one left to activate). The caller
// must then send the father-ack and call Disengage — except the root, for
// which "done" means global termination.
func (t *Tracker[ID]) RecordSent(n int) (done bool, err error) {
	if !t.engaged {
		return false, ErrNotEngaged
	}
	if n < 0 {
		return false, fmt.Errorf("dsterm: negative send count %d", n)
	}
	t.deficit += n
	return t.deficit == 0, nil
}

// OnAck consumes an acknowledgement for the given round. It returns true
// when the node's deficit reaches zero: the node must acknowledge its
// father and Disengage (or, for the root, conclude termination).
func (t *Tracker[ID]) OnAck(round uint32) (done bool, err error) {
	if !t.engaged {
		return false, fmt.Errorf("%w: ack for round %d", ErrNotEngaged, round)
	}
	if round != t.round {
		return false, fmt.Errorf("%w: ack for round %d during %d", ErrWrongRound, round, t.round)
	}
	if t.deficit == 0 {
		return false, ErrOverAcked
	}
	t.deficit--
	return t.deficit == 0, nil
}

// Disengage ends the node's participation in the current round.
func (t *Tracker[ID]) Disengage() {
	t.engaged = false
	t.isRoot = false
}

// Engaged reports whether the node is part of the activity graph.
func (t *Tracker[ID]) Engaged() bool { return t.engaged }

// IsRoot reports whether the node is the root of the current computation.
func (t *Tracker[ID]) IsRoot() bool { return t.isRoot }

// Father returns the node that engaged this node in the current round; the
// zero ID for the root.
func (t *Tracker[ID]) Father() ID { return t.father }

// Round returns the round of the last engagement.
func (t *Tracker[ID]) Round() uint32 { return t.round }

// Deficit returns the number of unacknowledged activations sent.
func (t *Tracker[ID]) Deficit() int { return t.deficit }
