package server

import (
	"sync"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/server/speckey"
)

// RunSpec is the request schema of POST /v1/runs: a scenario-registry
// lookup plus the per-run inputs that change a DES result. It is an alias
// of speckey.Spec — the decoder and the canonicalization (the result
// cache's content address AND the gateway's affinity-routing hash) live in
// internal/server/speckey so replica and gateway accept the same bodies and
// derive the identical key from the identical schema.
type RunSpec = speckey.Spec

// buildSpec resolves a decoded spec against the scenario registry into a
// runnable instance: a fresh surface and the run configuration. All
// failures here are client errors (400).
func buildSpec(sp RunSpec) (*scenario.Scenario, core.Config, error) {
	scen, err := scenario.Build(sp.Scenario, sp.Params)
	if err != nil {
		return nil, core.Config{}, err
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

// eventBufPool pools the event-slice backing arrays of flights. The
// server creates one flight per engine run and appends a few hundred events
// to it; recycling the arrays spares that path the slice growth.
var eventBufPool = sync.Pool{
	New: func() any { return make([]core.Event, 0, 256) },
}

func getEventBuf() []core.Event { return eventBufPool.Get().([]core.Event)[:0] }

// putEventBuf resets and returns a buffer to the pool. Elements are zeroed
// first so pooled arrays don't pin engine-side payload slices (winner
// lists, wave stamps) across requests.
func putEventBuf(buf []core.Event) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = core.Event{}
	}
	eventBufPool.Put(buf[:0]) //nolint:staticcheck // slices are pointer-shaped enough here
}
