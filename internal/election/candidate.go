// Package election implements the value layer of the paper's distributed
// election (§V-C): the (ShortestDistance, IDshortest) candidates carried by
// Activate and Ack messages, their order-insensitive aggregation along the
// Dijkstra–Scholten activity graph, and the per-node routing pointers that
// let the Root's Select message travel down the father/son tree to the
// elected block.
//
// Tie-breaking: the paper has the Root "select randomly one block" among
// equally distant candidates. Aggregation along the tree collapses ties
// before the Root sees them, so randomness is realised with a per-round
// pseudo-random priority: every block derives Priority = h(round, id) from
// the public round number, and candidates order by (distance, priority,
// id). The choice is uniform-like across rounds yet identical on every
// engine and every message ordering, which keeps runs reproducible.
package election

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/msg"
)

// TieBreak selects how equally distant candidates are ordered.
type TieBreak int

const (
	// TieLowestID prefers the smallest block id (fully deterministic).
	TieLowestID TieBreak = iota
	// TieRandom uses the per-round pseudo-random priority (the paper's
	// random selection, made reproducible).
	TieRandom
)

// String implements fmt.Stringer.
func (t TieBreak) String() string {
	switch t {
	case TieLowestID:
		return "lowest-id"
	case TieRandom:
		return "random"
	}
	return fmt.Sprintf("TieBreak(%d)", int(t))
}

// Candidate is a block's bid in one election: its wire entry (msg.Cand)
// plus the tie-break priority, which every block recomputes from the public
// (round, id) pair, so the wire never carries it. Beyond the paper's
// (ShortestDistance, IDshortest) pair the entry carries what the Root's
// parallel-moves admission ladder consumes: the bidder's position, whether
// the bidder is currently a cut vertex of the ensemble (exec.Env.CutVertex),
// the planned destination of its best move and that move's full cell
// footprint (msg.Footprint, computed once at the proposer from the
// bitboard-compiled rule). None of the extra fields participates in the
// election order. A bid's wave stamp is always 0: only a GO entry carries
// one.
type Candidate struct {
	msg.Cand
	Priority uint64
}

// Neutral returns the identity element of Merge: an infinitely distant
// non-block. Blocks with d = +inf (eqs. (8)–(9)) bid Neutral.
func Neutral() Candidate {
	return Candidate{Cand: msg.Cand{Distance: msg.InfiniteDistance, ID: lattice.None}, Priority: ^uint64(0)}
}

// IsNeutral reports whether c can never win an election.
func (c Candidate) IsNeutral() bool { return c.Distance == msg.InfiniteDistance }

// Better reports whether c strictly precedes o in election order:
// smaller distance, then smaller priority, then smaller id.
func (c Candidate) Better(o Candidate) bool { return better(&c, &o) }

// better is Better on pointers, so Fold compares kept slots in place.
func better(c, o *Candidate) bool {
	if c.Distance != o.Distance {
		return c.Distance < o.Distance
	}
	if c.Priority != o.Priority {
		return c.Priority < o.Priority
	}
	return c.ID < o.ID
}

// Merge returns the better of a and b. It is commutative, associative and
// idempotent, with Neutral as identity — the properties that make the
// tree-fold independent of message arrival order.
func Merge(a, b Candidate) Candidate {
	if b.Better(a) {
		return b
	}
	return a
}

// String implements fmt.Stringer.
func (c Candidate) String() string {
	if c.IsNeutral() {
		return "candidate<none>"
	}
	return fmt.Sprintf("candidate<d=%d id=%d>", c.Distance, c.ID)
}

// PriorityFor derives block id's tie-break priority for an election round.
// With TieLowestID every priority is zero and order falls back to ids; with
// TieRandom it is a SplitMix64 hash of (round, id), identical on every
// engine because both inputs are public protocol state.
func PriorityFor(mode TieBreak, round uint32, id lattice.BlockID) uint64 {
	if mode == TieLowestID {
		return 0
	}
	x := uint64(round)<<32 | uint64(uint32(id))
	// SplitMix64 finaliser.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Aggregator folds the candidates a node learns during one election round
// (its own bid plus the list carried by each child ack) into a bounded
// top-K set ordered by Better, and remembers per entry which neighbour
// reported it, so the Root's Select messages can be routed down the
// father/son tree to every winner of a batch.
//
// Keeping a top-K set instead of a single max preserves the fold's
// order-insensitivity: Better is a total order (ids are unique), so the kept
// set is the K smallest elements of the multiset union no matter how the
// child acks interleave. K = 1 degenerates to the paper's serial max-fold,
// including the tie-break semantics per slot.
type Aggregator struct {
	k       int
	entries []slot
}

// slot is one kept candidate plus its routing pointer.
type slot struct {
	c   Candidate
	via lattice.BlockID // neighbour that reported c; lattice.None = self
}

// Reset starts a new aggregation with the node's own bid, keeping the best
// k candidates (k < 1 is treated as 1; k is capped at msg.MaxBatch, the
// wire format's candidate-list bound). It reuses the storage of the
// previous aggregation, so a node that folds one election per round
// allocates its entries once. The zero Aggregator keeps nothing until
// Reset.
func (a *Aggregator) Reset(own Candidate, k int) {
	a.k = min(max(k, 1), msg.MaxBatch)
	if cap(a.entries) < a.k {
		a.entries = make([]slot, 0, a.k)
	}
	a.entries = a.entries[:0]
	a.Fold(&own, lattice.None)
}

// Fold merges a candidate reported by neighbour `from` into the top-K set
// and reports whether the bounded set lost a bid doing so: c itself, when
// it is worse than every entry of a full set, or the last entry, which c
// evicts from a full set. Either way one bid is gone for good, since the
// kept set only improves, so a node that folds n non-neutral bids loses
// max(0, n-K) of them whatever order they arrive in — callers that care
// about silent truncation at the wire bound count these. Neutral candidates
// are the fold identity: never kept, and never a loss. Fold copies *c only
// into a kept slot.
func (a *Aggregator) Fold(c *Candidate, from lattice.BlockID) (dropped bool) {
	if c.Distance == msg.InfiniteDistance { // c.IsNeutral() would copy *c
		return false
	}
	// Find the insertion point in the Better order (entries are tiny: k <=
	// msg.MaxBatch, so a linear scan beats anything clever). c goes after
	// every kept entry it does not strictly beat, so on an exact duplicate
	// the first-reported entry keeps its slot, like the serial max-fold.
	i := 0
	for i < len(a.entries) && !better(c, &a.entries[i].c) {
		i++
	}
	if i == a.k {
		return true // worse than every kept candidate
	}
	dropped = len(a.entries) == a.k
	if !dropped {
		a.entries = append(a.entries, slot{})
	}
	copy(a.entries[i+1:], a.entries[i:])
	a.entries[i].c, a.entries[i].via = *c, from
	return dropped
}

// Best returns the best kept candidate, or Neutral when nothing was kept.
func (a *Aggregator) Best() Candidate {
	if len(a.entries) == 0 {
		return Neutral()
	}
	return a.entries[0].c
}

// Via returns the neighbour whose subtree holds Best, or lattice.None when
// the node's own bid is best.
func (a *Aggregator) Via() lattice.BlockID {
	if len(a.entries) == 0 {
		return lattice.None
	}
	return a.entries[0].via
}

// ViaFor returns the neighbour whose subtree reported candidate id (the hop
// a Select for that winner must take), or false when id was not kept.
func (a *Aggregator) ViaFor(id lattice.BlockID) (lattice.BlockID, bool) {
	for _, e := range a.entries {
		if e.c.ID == id {
			return e.via, true
		}
	}
	return lattice.None, false
}

// Len returns the number of kept candidates.
func (a *Aggregator) Len() int { return len(a.entries) }

// At returns the i-th kept candidate in Better order.
func (a *Aggregator) At(i int) Candidate { return a.entries[i].c }

// AppendCands appends the wire entries of the kept candidates to dst in
// Better order and returns the extended slice.
func (a *Aggregator) AppendCands(dst []msg.Cand) []msg.Cand {
	for i := range a.entries {
		dst = append(dst, a.entries[i].c.Cand)
	}
	return dst
}
