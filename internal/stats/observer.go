package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/msg"
)

// Hist is an integer-keyed histogram (moves-per-round, wave lengths). It
// marshals as a JSON object with decimal-string keys in ascending numeric
// order, so serialized summaries are deterministic byte for byte — a plain
// map[int]int would marshal with Go's string-sorted key order ("10" < "2"),
// which reads wrong in dashboards and diffs.
type Hist map[int]int

// MarshalJSON implements json.Marshaler.
func (h Hist) MarshalJSON() ([]byte, error) {
	if len(h) == 0 {
		return []byte("{}"), nil
	}
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	buf := []byte{'{'}
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendQuote(buf, strconv.Itoa(k))
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(h[k]), 10)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var raw map[string]int
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Hist, len(raw))
	for k, v := range raw {
		n, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("stats: histogram key %q is not an integer: %w", k, err)
		}
		out[n] = v
	}
	*h = out
	return nil
}

// SessionSummary aggregates a session's Observer stream into the headline
// counts the report tables print: elections by tier, empty elections,
// motions (with carries split out), and the engine's final message totals.
// Attach with core.WithObserver; one summary may absorb every session of
// an engine, concurrent ones included, since its counts only add up.
//
// The struct serialises flat: every field carries a snake_case JSON tag and
// the histograms marshal deterministically (Hist), so a summary can be
// embedded verbatim in service responses and the sbserver /metrics document.
type SessionSummary struct {
	Rounds         int    `json:"rounds"`        // elections opened (EventRoundStarted)
	EscapeRounds   int    `json:"escape_rounds"` // opened above TierDecreasing
	Decided        int    `json:"decided"`       // elections that elected a block
	Empty          int    `json:"empty"`         // elections that found nobody electable
	MovesElected   int    `json:"moves_elected"` // admitted winners across all elections (batch move-sets)
	BatchRounds    int    `json:"batch_rounds"`  // elections that admitted more than one winner
	Motions        int    `json:"motions"`       // rule applications executed
	Carries        int    `json:"carries"`       // of which carrying rules
	Terminations   int    `json:"terminations"`  // Root completion reports seen (one per session)
	Successes      int    `json:"successes"`     // of which successful
	MessagesSent   uint64 `json:"messages_sent"`
	MessagesDrop   uint64 `json:"messages_dropped"`
	EngineEvents   uint64 `json:"engine_events"`
	CandsDropped   uint64 `json:"candidates_dropped"` // candidates truncated by the bounded top-K fold
	LastVirtualsNS int64  `json:"last_virtual_ns"`    // last backend clock seen (ticks or ns)

	// MovesHist is the moves-per-round histogram: MovesHist[m] counts the
	// decided elections that admitted exactly m winners. Lazily allocated.
	MovesHist Hist `json:"moves_hist,omitempty"`
	// WaveHist is the wave-length distribution: WaveHist[l] counts the
	// decided elections whose ordered conveyor wave (winners with a nonzero
	// wave stamp) had length l. Rounds without a wave are not recorded.
	WaveHist Hist `json:"wave_hist,omitempty"`
}

// OnEvent implements core.Observer.
func (s *SessionSummary) OnEvent(ev core.Event) {
	switch ev.Kind {
	case core.EventRoundStarted:
		s.Rounds++
		if ev.Tier > msg.TierDecreasing {
			s.EscapeRounds++
		}
	case core.EventElectionDecided:
		if ev.Winner == lattice.None {
			s.Empty++
		} else {
			s.Decided++
			s.MovesElected += ev.Batch
			if ev.Batch > 1 {
				s.BatchRounds++
			}
			if s.MovesHist == nil {
				s.MovesHist = make(Hist)
			}
			s.MovesHist[ev.Batch]++
			wave := 0
			for _, stamp := range ev.WaveStamps {
				if stamp > 0 {
					wave++
				}
			}
			if wave > 0 {
				if s.WaveHist == nil {
					s.WaveHist = make(Hist)
				}
				s.WaveHist[wave]++
			}
		}
	case core.EventMotionApplied:
		s.Motions++
		if ev.Apply.IsCarrying {
			s.Carries++
		}
	case core.EventTerminated:
		s.Terminations++
		if ev.Success {
			s.Successes++
		}
	case core.EventMessageStats:
		s.MessagesSent += ev.Sent
		s.MessagesDrop += ev.Dropped
		s.EngineEvents += ev.Events
		s.CandsDropped += ev.CandsDropped
		s.LastVirtualsNS = ev.VirtualTime
	}
}

// MovesPerRound is the realised batch parallelism: admitted winners per
// decided election (1.0 for the serial protocol, up to K for
// Config.ParallelMoves = K workloads with enough non-interfering movers).
func (s *SessionSummary) MovesPerRound() float64 {
	if s.Decided == 0 {
		return 0
	}
	return float64(s.MovesElected) / float64(s.Decided)
}

// String renders a one-line digest.
func (s *SessionSummary) String() string {
	return fmt.Sprintf("rounds=%d (escape %d, empty %d) motions=%d (carries %d) moves/round=%.2f msgs=%d done=%d/%d",
		s.Rounds, s.EscapeRounds, s.Empty, s.Motions, s.Carries,
		s.MovesPerRound(), s.MessagesSent, s.Successes, s.Terminations)
}

var _ core.Observer = (*SessionSummary)(nil)
