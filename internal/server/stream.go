package server

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/server/speckey"
)

// RunSpec is the request schema of POST /v1/runs: a scenario-registry
// lookup plus the per-run engine knobs the service exposes. It is an alias
// of speckey.Spec — the canonicalization (the result cache's content
// address AND the gateway's affinity-routing hash) lives in
// internal/server/speckey so replica and gateway derive the identical key
// from the identical schema and cannot drift.
type RunSpec = speckey.Spec

// buildSpec resolves the spec against the scenario registry into a runnable
// instance: a fresh surface (pre-sharded when requested — the engine keeps
// caller-provided shard layouts) and the run configuration. Every run is a
// DES run, so a spec naming any other backend is refused. All failures here
// are client errors (400).
func buildSpec(sp RunSpec) (*scenario.Scenario, core.Config, error) {
	if _, err := sp.ResolveBackend(); err != nil {
		return nil, core.Config{}, err
	}
	if sp.K < 0 || sp.Shards < 0 || sp.MaxRounds < 0 {
		return nil, core.Config{}, fmt.Errorf("server: negative k/shards/max_rounds")
	}
	scen, err := scenario.Build(sp.Scenario, sp.Params)
	if err != nil {
		return nil, core.Config{}, err
	}
	if sp.Shards > 1 {
		if err := scen.Surface.EnableSharding(sp.Shards); err != nil {
			return nil, core.Config{}, err
		}
	}
	cfg := scen.Config()
	cfg.ParallelMoves = sp.K
	cfg.MaxRounds = sp.MaxRounds
	return scen, cfg, nil
}

// wireEvent is one streamed observer event: a flattened core.Event with
// kind-irrelevant fields omitted. Type discriminates the stream's record
// kinds ("event" here; "result" and "error" close a stream).
type wireEvent struct {
	Type     string `json:"type"`
	Kind     string `json:"kind"`
	Round    int    `json:"round,omitempty"`
	Tier     int    `json:"tier,omitempty"`
	Winner   int    `json:"winner,omitempty"`
	Distance int32  `json:"distance,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	Wave     int    `json:"wave,omitempty"`
	Moved    int    `json:"moved,omitempty"`
	Carry    bool   `json:"carry,omitempty"`
	Success  *bool  `json:"success,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	Sent     uint64 `json:"sent,omitempty"`
	Events   uint64 `json:"events,omitempty"`
	Virtual  int64  `json:"virtual_time,omitempty"`
	Text     string `json:"text,omitempty"`
}

// toWire flattens a core event into its stream record.
func toWire(ev core.Event) wireEvent {
	w := wireEvent{Type: "event", Kind: ev.Kind.String()}
	switch ev.Kind {
	case core.EventRoundStarted:
		w.Round, w.Tier, w.Batch = ev.Round, int(ev.Tier), ev.Batch
	case core.EventElectionDecided:
		w.Round, w.Distance, w.Batch = ev.Round, ev.Distance, ev.Batch
		w.Winner = int(ev.Winner)
		for _, stamp := range ev.WaveStamps {
			if stamp > 0 {
				w.Wave++
			}
		}
	case core.EventMotionApplied:
		w.Moved, w.Carry = ev.Apply.Hops, ev.Apply.IsCarrying
	case core.EventTerminated:
		s := ev.Success
		w.Success, w.Rounds = &s, ev.Rounds
	case core.EventMessageStats:
		w.Sent, w.Events, w.Virtual = ev.Sent, ev.Events, ev.VirtualTime
	case core.EventLog:
		w.Text = ev.Text
	}
	return w
}

// wireTiming is the flat per-request phase timing echoed in every result
// record: enqueue (admission -> run start) and the run itself. The respond
// phase (run end -> response written) cannot be part of the payload it
// times; /metrics aggregates it.
type wireTiming struct {
	EnqueueNS int64 `json:"enqueue_ns"`
	RunNS     int64 `json:"run_ns"`
}

// wireResult is the stream's terminal record (also the whole response body
// under ?stream=none): the run's Result flattened to the metric set the
// evaluation quotes, plus the request's phase timings.
type wireResult struct {
	Type          string     `json:"type"`
	Scenario      string     `json:"scenario"`
	Success       bool       `json:"success"`
	PathBuilt     bool       `json:"path_built"`
	Rounds        int        `json:"rounds"`
	Hops          int        `json:"hops"`
	Applications  int        `json:"applications"`
	MovesPerRound float64    `json:"moves_per_round"`
	MessagesSent  uint64     `json:"messages_sent"`
	Blocks        int        `json:"blocks"`
	PathLength    int        `json:"path_length"`
	VirtualTime   int64      `json:"virtual_time"`
	Events        uint64     `json:"events"`
	Timing        wireTiming `json:"timing"`
}

// wireError is the stream's failure record; Error carries the message.
type wireError struct {
	Type  string `json:"type"`
	Error string `json:"error"`
}

// resultRecord flattens a run outcome.
func resultRecord(name string, res core.Result, t wireTiming) wireResult {
	return wireResult{
		Type:          "result",
		Scenario:      name,
		Success:       res.Success,
		PathBuilt:     res.PathBuilt,
		Rounds:        res.Rounds,
		Hops:          res.Hops,
		Applications:  res.Applications,
		MovesPerRound: res.MovesPerRound(),
		MessagesSent:  res.MessagesSent,
		Blocks:        res.Blocks,
		PathLength:    res.PathLength,
		VirtualTime:   int64(res.VirtualTime),
		Events:        res.Events,
		Timing:        t,
	}
}

// spoolBufPool pools the event-slice backing arrays of spools and flights.
// The server throughput path creates one spool (or flight) per request and
// appends a few hundred events to it; recycling the arrays keeps that path
// allocation-free at steady state (pinned by
// TestEventSpoolSteadyStateAllocs).
var spoolBufPool = sync.Pool{
	New: func() any { return make([]core.Event, 0, 256) },
}

func getSpoolBuf() []core.Event { return spoolBufPool.Get().([]core.Event)[:0] }

// putSpoolBuf resets and returns a buffer to the pool. Elements are zeroed
// first so pooled arrays don't pin engine-side payload slices (winner
// lists, debug text) across requests.
func putSpoolBuf(buf []core.Event) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = core.Event{}
	}
	spoolBufPool.Put(buf[:0]) //nolint:staticcheck // slices are pointer-shaped enough here
}

// eventSpool buffers one request's live observer events between the engine
// worker producing them and the HTTP handler draining them. It is
// unbounded on purpose: a slow or stalled client must never block the
// engine's run (the engine-side OnEvent only appends under a mutex), so
// flow control happens at admission (queue cap), not mid-run. Closed by
// execute when the run's outcome is delivered.
//
// Backing slices are pooled: the drainer hands each drained slice back via
// recycle once rendered, so producer and consumer ping-pong between two
// arrays instead of allocating per drain; release returns everything to
// the package pool when the request is done.
type eventSpool struct {
	mu     sync.Mutex
	buf    []core.Event // current append target
	spare  []core.Event // recycled, ready to become buf
	closed bool
	wake   chan struct{} // cap 1: level-triggered "new events or closed"
}

func newEventSpool() *eventSpool {
	return &eventSpool{buf: getSpoolBuf(), wake: make(chan struct{}, 1)}
}

// OnEvent implements core.Observer for the engine side.
func (s *eventSpool) OnEvent(ev core.Event) {
	s.mu.Lock()
	if s.buf == nil {
		if s.spare != nil {
			s.buf, s.spare = s.spare, nil
		} else {
			s.buf = getSpoolBuf()
		}
	}
	s.buf = append(s.buf, ev)
	s.mu.Unlock()
	s.signal()
}

// close marks the stream complete and wakes the drainer one last time.
func (s *eventSpool) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signal()
}

func (s *eventSpool) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// drain takes every buffered event; open reports whether more may come.
// The caller owns the returned slice until it hands it back via recycle.
func (s *eventSpool) drain() (evs []core.Event, open bool) {
	s.mu.Lock()
	evs, s.buf = s.buf, nil
	open = !s.closed
	s.mu.Unlock()
	return evs, open
}

// recycle hands a drained slice back for reuse by the next appends.
func (s *eventSpool) recycle(evs []core.Event) {
	if evs == nil {
		return
	}
	evs = evs[:0]
	s.mu.Lock()
	if s.spare == nil {
		s.spare = evs
		evs = nil
	}
	s.mu.Unlock()
	if evs != nil {
		putSpoolBuf(evs)
	}
}

// release returns the spool's buffers to the pool. Only the single drainer
// may call it, after the stream has fully ended.
func (s *eventSpool) release() {
	s.mu.Lock()
	buf, spare := s.buf, s.spare
	s.buf, s.spare = nil, nil
	s.mu.Unlock()
	if buf != nil {
		putSpoolBuf(buf)
	}
	if spare != nil {
		putSpoolBuf(spare)
	}
}

// interface check
var _ core.Observer = (*eventSpool)(nil)
