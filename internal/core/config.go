// Package core implements the paper's contribution: the distributed
// iterative algorithm (Algorithm 1) that builds a minimum-hop-count shortest
// path of blocks between the input I and the output O of the modular
// surface, under the motion constraints of §IV.
//
// Every block runs the same BlockCode. The block sitting on I is the Root
// (Assumption 2): it drives iterated distributed elections over the
// Dijkstra–Scholten activity graph (§V-C); each election picks the mobile
// block with the smallest hop count to O (eqs. (6)–(10)); the elected block
// performs one straight hop towards O through a validated motion rule
// (possibly a carrying rule that displaces a helper too); the Root iterates
// until a block occupies O.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
)

// VetoMode selects how the Remark 1 "line or column between I and O"
// blocking prohibition is enforced on every candidate motion.
type VetoMode int

const (
	// VetoLookahead (default) generalises Remark 1: a motion is rejected if
	// afterwards no unfrozen block has any locally valid move towards O
	// while O is still free — the state Remark 1 calls "a blocking".
	VetoLookahead VetoMode = iota
	// VetoLine implements the literal prohibition: a motion is rejected if
	// afterwards the unfrozen blocks form a single line or column.
	VetoLine
	// VetoNone disables the guard (for ablations).
	VetoNone
)

// String implements fmt.Stringer.
func (v VetoMode) String() string {
	switch v {
	case VetoLookahead:
		return "lookahead"
	case VetoLine:
		return "line"
	case VetoNone:
		return "none"
	}
	return fmt.Sprintf("VetoMode(%d)", int(v))
}

// Config parameterises the algorithm. The zero value is not usable; call
// (Config).WithDefaults or fill Input/Output explicitly.
type Config struct {
	// Input is the cell I where parts enter and the Root sits (pinned).
	Input geom.Vec
	// Output is the cell O where parts leave; every block knows it
	// (Assumption 2).
	Output geom.Vec

	// StrictEq8 applies eq. (8) literally: any block sharing a row or
	// column with O freezes, wherever it stands. The default (false)
	// restricts freezing to the I–O rectangle, so blocks outside the region
	// of graph G are not stranded.
	StrictEq8 bool

	// TieBreak orders equally distant candidates; TieRandom reproduces the
	// paper's random selection (reproducibly), TieLowestID is fully
	// deterministic and is what the engine-equivalence tests use.
	TieBreak election.TieBreak

	// AllowRetreat enables the escape tier: when no block has a
	// distance-decreasing move, the Root re-runs the election admitting
	// distance-preserving moves (the paper's hop "tends to diminish the
	// distance", leaving room for lateral detours). Disable for ablations.
	AllowRetreat bool

	// Veto selects the Remark 1 blocking guard.
	Veto VetoMode

	// ParallelMoves is the election batch width K: each round the Root may
	// admit up to K non-interfering winners that all hop in the same round
	// (the O(log n) parallel-moves direction of arXiv:0908.2440). 0 or 1 is
	// the paper-faithful serial protocol — exactly one winner per round,
	// with the legacy election semantics preserved bit for bit. Values are
	// capped at msg.MaxBatch (the wire format's candidate-list bound).
	// Beyond the serial winner, candidates pass the footprint-aware
	// admission ladder of BlockCode.admitWinners: footprint-disjoint moves
	// are admitted outright, overlapping same-direction moves that commute
	// (validated by a batched what-if, exec.Env.ValidateMoveSet) are
	// admitted as an ordered wave, everything else is rejected.
	ParallelMoves int

	// MaxRounds caps the number of elections as a safety net; 0 derives
	// a generous bound from the instance size at Run time.
	MaxRounds int

	// Counters receives the algorithm metrics; nil allocates a fresh set.
	Counters *Counters
}

// WithDefaults fills unset fields with the documented defaults and caps
// ParallelMoves at msg.MaxBatch. A zero ParallelMoves stays zero, which the
// protocol reads (through parallelK) as the serial width 1.
func (c Config) WithDefaults() Config {
	if c.Counters == nil {
		c.Counters = &Counters{}
	}
	if c.ParallelMoves > msg.MaxBatch {
		c.ParallelMoves = msg.MaxBatch
	}
	return c
}

// parallelK is the effective election batch width: unset (0) and 1 are both
// the serial protocol, larger values cap at msg.MaxBatch.
func (c Config) parallelK() int {
	switch {
	case c.ParallelMoves < 1:
		return 1
	case c.ParallelMoves > msg.MaxBatch:
		return msg.MaxBatch
	default:
		return c.ParallelMoves
	}
}

// WithRunDefaults fills the instance-dependent defaults on top of
// WithDefaults: the MaxRounds election cap derived from the instance size.
// Engine.Run funnels every run through this one derivation.
func (c Config) WithRunDefaults(surf *lattice.Surface) Config {
	c = c.WithDefaults()
	if c.MaxRounds == 0 {
		n := surf.NumBlocks()
		d := c.Input.Manhattan(c.Output)
		// Each productive round moves one block one hop towards its final
		// cell; total work is O(N*d) with escape rounds interleaved. The
		// cap is a safety net, far above any healthy run.
		c.MaxRounds = 64 + 8*n*(d+2)
	}
	return c
}

// NewConfig returns the default configuration for an I -> O instance:
// rectangle-scoped eq. (8), random tie-break, escape tier enabled,
// lookahead veto.
func NewConfig(input, output geom.Vec) Config {
	return Config{
		Input:        input,
		Output:       output,
		TieBreak:     election.TieRandom,
		AllowRetreat: true,
		Veto:         VetoLookahead,
	}.WithDefaults()
}

// Counters aggregates algorithm metrics across all blocks. In a physical
// deployment each block would keep its own and the harness would sum them;
// sharing one set is equivalent and simpler. Fields are atomic because the
// goroutine runtime updates them concurrently.
type Counters struct {
	// DistanceComputations counts evaluations of d(B,O) (Remark 2 metric).
	DistanceComputations atomic.Int64
	// Elections counts completed election rounds (Algorithm 1 iterations).
	Elections atomic.Int64
	// EscapeElections counts rounds run at the distance-preserving tier.
	EscapeElections atomic.Int64
	// MovesElected counts admitted election winners across all rounds; with
	// ParallelMoves > 1 a round admits up to K, so MovesElected/Elections
	// is the realised moves-per-round parallelism.
	MovesElected atomic.Int64
	// MoveFailures counts elected blocks whose every candidate motion was
	// rejected by the physical layer (they self-suppress until the
	// neighbourhood changes).
	MoveFailures atomic.Int64
	// CandidateEnumerations counts move-planning passes.
	CandidateEnumerations atomic.Int64
	// CandidatesDropped counts non-neutral candidates truncated by the
	// bounded top-K fold (the msg.MaxBatch wire limit): folds where a bid
	// was worse than every kept entry of an already-full aggregator. The
	// count surfaces in the Observer's message-stats event so silent
	// truncation is visible.
	CandidatesDropped atomic.Int64
}

// Snapshot returns a plain-struct copy of the counters.
func (c *Counters) Snapshot() CounterValues {
	return CounterValues{
		DistanceComputations:  c.DistanceComputations.Load(),
		Elections:             c.Elections.Load(),
		EscapeElections:       c.EscapeElections.Load(),
		MovesElected:          c.MovesElected.Load(),
		MoveFailures:          c.MoveFailures.Load(),
		CandidateEnumerations: c.CandidateEnumerations.Load(),
		CandidatesDropped:     c.CandidatesDropped.Load(),
	}
}

// CounterValues is a point-in-time copy of Counters.
type CounterValues struct {
	DistanceComputations  int64
	Elections             int64
	EscapeElections       int64
	MovesElected          int64
	MoveFailures          int64
	CandidateEnumerations int64
	CandidatesDropped     int64
}
