// Package exec defines the execution model shared by the two engines that
// can run a block program: the deterministic discrete-event simulator
// (internal/sim, the VisibleSim substitute of §V-E) and the asynchronous
// goroutine runtime (internal/runtime). A per-block program — the paper
// calls it a BlockCode — is written once against these interfaces and runs
// unchanged on either engine.
// The hardware is modelled once too: World is a run's physical layer, and
// both engines answer every Env method from it except message delivery.
package exec

import (
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// Env is a block's view of its host hardware: identity, registers, the four
// side ports, sensors, motion actuators, and the rule library stored in its
// memory (the XML capabilities of Fig. 7). Engines guarantee that all
// callbacks of one block are serialised, so a BlockCode never needs locks
// around its own state.
type Env interface {
	// ID returns the host block's identifier.
	ID() lattice.BlockID
	// Position returns the block's current cell. Blocks "store in registers
	// their position on the surface" (Assumption 2); engines keep the
	// register current as the block moves.
	Position() geom.Vec
	// Input returns the position of the input cell I (where the Root sits).
	Input() geom.Vec
	// Output returns the position of the output cell O, known to all blocks
	// (Assumption 2).
	Output() geom.Vec

	// Neighbors returns the Neighbor Table NT: the adjacent block on each
	// lateral side, or lattice.None (§V-B). Every change to it reaches the
	// block as OnMoved or OnNeighborhoodChanged, since a lateral cell lies
	// inside the sensing window.
	Neighbors() [geom.NumDirs]lattice.BlockID
	// Send transmits a message through the port facing the given adjacent
	// block. Sending to a non-adjacent block fails: ports are physical
	// contacts (§II).
	Send(to lattice.BlockID, m msg.Message) error

	// Sense reports the occupancy of a cell within the sensing window
	// (Chebyshev distance <= SensingRadius from the block). Side sensors
	// give distance-1 cells; rounds of neighbour information exchange
	// extend the window far enough to evaluate every library rule anchored
	// so that this block is one of its movers (twice the largest rule
	// radius: distance 2 for the paper's 3x3 rules, 4 with the 5x5
	// chain-carry extension). Cells outside the window panic: the hardware
	// has no way to observe them.
	Sense(v geom.Vec) bool
	// SenseWindow reports the occupancy of the square of the given radius
	// around anchor as one bitboard, in rules.WindowAround's bit layout:
	// the readings one Sense per cell would give, in one read. Rule
	// matching (MM⊗MP) reads its windows this way: a plan over the paper's
	// 3x3 rules reads the whole sensing window centred on the block once,
	// and the World answers it with word operations on the lattice's row
	// bitsets. The square must lie inside the sensing window (anchor's
	// Chebyshev distance from the block plus radius at most SensingRadius)
	// and fit a bitboard (radius at most rules.MaxWindowRadius); otherwise
	// it panics, as Sense does.
	//
	// Sense stays beside it for the single readings that remain: rules
	// whose matrices are wider than a bitboard are matched cell by cell
	// (a library with one reads one window per rule placement),
	// and a wrapper that perturbs or observes readings one cell at a time
	// (the fault layer's flaky sensors) answers SenseWindow through its own
	// Sense, so both paths see the same readings.
	SenseWindow(anchor geom.Vec, radius int) uint64
	// SensingRadius returns the window radius (2 x the max rule radius).
	SensingRadius() int

	// CutVertex reports whether this block is currently an articulation
	// point of the ensemble: whether its lone departure would split the
	// surface into disconnected pieces. In hardware this is the
	// electro-permanent latching interlock's "load-bearing" signal — the
	// same layer that refuses disconnecting motions (Remark 1) can tell a
	// block it is one. In the reproduction the World answers it from the
	// lattice's incremental articulation cache. Blocks include the bit in
	// their election bids so the Root's parallel-moves interference filter
	// can admit extra winners without risking a connectivity interaction.
	CutVertex() bool

	// ValidateMoveSet checks an ordered list of planned single-block
	// displacements as one batched what-if against the current surface and
	// returns the length of the longest valid prefix (see
	// lattice.Surface.ValidateMoveSet). The Root's wave admission uses it to
	// test whether overlapping same-direction candidates commute when applied
	// in stamp order; every admitted hop is still validated live by Move, so
	// the answer is a planning verdict, not the safety guard.
	ValidateMoveSet(moves []lattice.PlannedMove) int

	// Library returns the motion capabilities stored in the block.
	Library() *rules.Library
	// Move asks the actuators to execute a rule application in which this
	// block is a mover. The physical layer validates it against the full
	// surface (including the global connectivity guard of Remark 1) and
	// executes it atomically; helpers move in the same instant.
	Move(app rules.Application) error
}

// BlockCode is the per-block program, named after VisibleSim's concept of
// the same name (§V-E). Engines call the hooks with the block's Env; hooks
// of a single block never run concurrently.
type BlockCode interface {
	// OnStart runs once when the system boots, before any message flows.
	OnStart(env Env)
	// OnMessage runs once for each message delivered to the block, as it
	// arrives.
	OnMessage(env Env, from lattice.BlockID, m msg.Message)
	// OnMoved runs after the host block was physically displaced, whether
	// as the initiating mover or as a carried helper.
	OnMoved(env Env, from, to geom.Vec)
	// OnNeighborhoodChanged runs when any cell inside the block's sensing
	// window changed occupancy without the block itself moving (a sensor
	// interrupt). The block may re-evaluate its mobility.
	OnNeighborhoodChanged(env Env)
}

// CodeFactory builds the BlockCode for a block; engines call it once per
// block at boot.
type CodeFactory func(id lattice.BlockID) BlockCode

// Termination is how the algorithm reports completion to the engine and the
// harness: the Root calls Finish exactly once.
type Termination interface {
	// Finish reports whether the reconfiguration succeeded (a block
	// occupies O and the path stands) after the given number of election
	// rounds.
	Finish(success bool, rounds int)
}

// Metrics is the engine-level measurement snapshot every execution backend
// reports after a run. It is the common denominator of the discrete-event
// simulator and the goroutine runtime, so the session layer (core.Engine)
// can fill the unified Result without knowing which backend ran.
type Metrics struct {
	// MessagesSent counts Send calls accepted by ports.
	MessagesSent uint64
	// SentByType splits MessagesSent by message type, indexed by
	// msg.Type.Slot: entry t counts the accepted sends of msg.Type t, and
	// entry 0 those of an invalid type.
	SentByType [msg.NumTypes + 1]uint64
	// WireBytes sums msg.Message.WireSize over the accepted sends.
	WireBytes uint64
	// MessagesDelivered counts messages handed to BlockCodes.
	MessagesDelivered uint64
	// MessagesDropped counts messages never handed to a BlockCode: on the
	// DES, a receiver with no host; on the goroutine runtime, a full event
	// channel.
	MessagesDropped uint64
	// Events counts executed engine events: scheduler events on the DES,
	// per-block dispatched events (start, message, moved, neighborhood) on
	// the goroutine runtime.
	Events uint64
	// VirtualTime is the run's completion time in the backend's own clock:
	// virtual ticks for the DES, elapsed wall-clock nanoseconds for the
	// goroutine runtime.
	VirtualTime int64
}
