package core

import (
	"sync"

	"repro/internal/lattice"
	"repro/internal/msg"
)

// EventKind discriminates the entries of the Observer stream.
type EventKind uint8

const (
	// EventRoundStarted fires when the Root opens an election (one entry
	// per tier attempt; the paper's Algorithm 1 iteration counter advances
	// on EventElectionDecided).
	EventRoundStarted EventKind = iota
	// EventElectionDecided fires when the Root's Dijkstra-Scholten deficit
	// clears: Winner is the elected block, or lattice.None when the tier
	// found nobody electable (the Root then escalates or declares a
	// blocking).
	EventElectionDecided
	// EventMotionApplied fires after every executed rule application, with
	// the full physical-layer result (movers, carried helpers, rule).
	EventMotionApplied
	// EventTerminated fires when the Root reports completion (success or
	// give-up) — at most once per run.
	EventTerminated
	// EventMessageStats fires once when the backend drains, carrying the
	// engine-level message and event totals of the run.
	EventMessageStats
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRoundStarted:
		return "round-started"
	case EventElectionDecided:
		return "election-decided"
	case EventMotionApplied:
		return "motion-applied"
	case EventTerminated:
		return "terminated"
	case EventMessageStats:
		return "message-stats"
	}
	return "unknown"
}

// Event is one entry of a run's observer stream. Kind selects which fields
// are meaningful; unrelated fields are zero.
type Event struct {
	Kind EventKind

	// Round is the election counter (RoundStarted, ElectionDecided).
	Round int
	// Tier is the admission tier of the election (RoundStarted).
	Tier msg.Tier

	// Winner is the elected block — the best candidate, identical to the
	// serial protocol's single winner — or lattice.None for an empty
	// election (ElectionDecided).
	Winner lattice.BlockID
	// Distance is the winner's bid: its hop count to O (ElectionDecided).
	Distance int32
	// Winners is the admitted move-set of the round in admission order:
	// Winners[0] == Winner, followed by the extra non-interfering winners of
	// a parallel-moves batch. Nil for an empty election (ElectionDecided).
	Winners []lattice.BlockID
	// WaveStamps aligns with Winners: each admitted winner's wave ordering
	// stamp — 0 for an unordered (footprint-disjoint) winner, s >= 1 for the
	// s-th member of the round's ordered conveyor wave, which executes only
	// after every lower-stamped member's MoveDone (ElectionDecided).
	WaveStamps []uint8
	// Batch is len(Winners) on ElectionDecided — the round's admitted
	// winner count — and the configured parallel-moves width K on
	// RoundStarted.
	Batch int

	// Apply is the physical-layer result (MotionApplied).
	Apply lattice.ApplyResult

	// Success is the Root's verdict (Terminated).
	Success bool
	// Rounds is the number of completed elections (Terminated).
	Rounds int

	// Sent, Delivered, Dropped and Events are the engine totals
	// (MessageStats).
	Sent, Delivered, Dropped, Events uint64
	// CandsDropped is the number of non-neutral election candidates the
	// bounded top-K fold truncated at the msg.MaxBatch wire limit across the
	// run — visible truncation instead of silent (MessageStats).
	CandsDropped uint64
	// VirtualTime is the backend clock at drain: virtual ticks on the DES,
	// elapsed wall-clock nanoseconds on the goroutine runtime
	// (MessageStats).
	VirtualTime int64
}

// Observer consumes the structured event stream of a session: trace
// recording, statistics, fault monitoring, the experiment harness and the
// server's flights all hook in through this one interface.
//
// Events of one DES run arrive strictly ordered. Under the Async backend,
// events originate on several goroutines; the session serialises delivery,
// so an Observer still never needs internal locking, but cross-goroutine
// ordering is only causal, not total.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a plain function to Observer.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// MultiObserver fans one stream out to several observers, in order.
func MultiObserver(obs ...Observer) Observer {
	flat := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return multiObserver(flat)
}

type multiObserver []Observer

// OnEvent implements Observer.
func (m multiObserver) OnEvent(ev Event) {
	for _, o := range m {
		o.OnEvent(ev)
	}
}

// emitter serialises event delivery to one observer. The DES never
// contends within a run, but under the Async backend the Root's hooks and
// the surface-locked Move path race, and concurrent sessions of one Engine
// share the engine's observer — the mutex (the Engine's obsMu, shared by
// every emitter of its sessions) is what lets a plain slice buffer or
// recorder be used as an Observer unchanged.
type emitter struct {
	mu  *sync.Mutex
	obs Observer
}

// newEmitter returns an emitter delivering under mu, or nil when there is
// nobody to notify (callers skip event construction entirely on a nil
// emitter).
func newEmitter(obs Observer, mu *sync.Mutex) *emitter {
	if obs == nil {
		return nil
	}
	return &emitter{mu: mu, obs: obs}
}

// emit delivers the event.
func (e *emitter) emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.obs.OnEvent(ev)
	e.mu.Unlock()
}
