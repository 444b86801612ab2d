package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/msg"
)

// Cross-replica cache peering. When a replica set sits behind the sbgate
// affinity router and the ring changes (a replica drains out, a new one
// scales in), a key segment moves to a new owner whose cache is cold for
// it — but the previous owner, the segment's ring successor, is still
// warm. Instead of re-running the engine, the new owner probes that peer
// with GET /v1/peek?key=… (cache-only, never runs the engine) and adopts
// the recording. The gateway names the peer per request in the
// X-Peer-Probe header, so replicas stay ring-unaware: the ring lives in
// exactly one place and cannot drift from the routing.
const (
	headerSpecKey   = "X-Spec-Key"   // canonical spec key of this run (every /v1/runs response)
	headerPeerProbe = "X-Peer-Probe" // base URL of the ring successor to probe on an engine-path miss
)

// peekEvent is the wire form of one recorded observer event in a peer
// transfer: exactly the fields the stream encoders (toWire) read, so the
// adopting replica reconstructs an event history that renders
// byte-identically — without shipping engine-internal payloads (rule
// pointers, winner lists the stream never prints).
type peekEvent struct {
	Kind       uint8   `json:"k"`
	Round      int     `json:"r,omitempty"`
	Tier       uint8   `json:"t,omitempty"`
	Winner     int32   `json:"w,omitempty"`
	Distance   int32   `json:"d,omitempty"`
	WaveStamps []uint8 `json:"ws,omitempty"` // []byte: JSON base64, round-trips exactly
	Batch      int     `json:"b,omitempty"`
	Hops       int     `json:"h,omitempty"`
	Carry      bool    `json:"c,omitempty"`
	Success    bool    `json:"ok,omitempty"`
	Rounds     int     `json:"rs,omitempty"`
	Sent       uint64  `json:"s,omitempty"`
	Events     uint64  `json:"e,omitempty"`
	Virtual    int64   `json:"v,omitempty"`
}

func toPeekEvent(ev core.Event) peekEvent {
	return peekEvent{
		Kind:       uint8(ev.Kind),
		Round:      ev.Round,
		Tier:       uint8(ev.Tier),
		Winner:     int32(ev.Winner),
		Distance:   ev.Distance,
		WaveStamps: ev.WaveStamps,
		Batch:      ev.Batch,
		Hops:       ev.Apply.Hops,
		Carry:      ev.Apply.IsCarrying,
		Success:    ev.Success,
		Rounds:     ev.Rounds,
		Sent:       ev.Sent,
		Events:     ev.Events,
		Virtual:    ev.VirtualTime,
	}
}

func (pe peekEvent) event() core.Event {
	ev := core.Event{
		Kind:        core.EventKind(pe.Kind),
		Round:       pe.Round,
		Tier:        msg.Tier(pe.Tier),
		Winner:      lattice.BlockID(pe.Winner),
		Distance:    pe.Distance,
		WaveStamps:  pe.WaveStamps,
		Batch:       pe.Batch,
		Success:     pe.Success,
		Rounds:      pe.Rounds,
		Sent:        pe.Sent,
		Events:      pe.Events,
		VirtualTime: pe.Virtual,
	}
	ev.Apply.Hops = pe.Hops
	ev.Apply.IsCarrying = pe.Carry
	return ev
}

// peekRecord is the GET /v1/peek response body: one complete memoized run.
type peekRecord struct {
	Scenario string      `json:"scenario"`
	Result   core.Result `json:"result"`
	Timing   wireTiming  `json:"timing"`
	Events   []peekEvent `json:"events"`
}

// handlePeek answers a cache-only lookup: the full recording when this
// replica holds the key, 404 when it does not. It NEVER runs the engine —
// a peek is the cheap question "can you spare me a run?", and an expensive
// answer would defeat it. Intended for replica-to-replica peering (the
// prober adopts the recording into its own cache), which is why peek
// traffic is counted separately from client hit/miss traffic.
func (s *Server) handlePeek(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	e, ok := s.cache.peek(key)
	if !ok {
		httpError(w, http.StatusNotFound, "key not cached here")
		return
	}
	rec := peekRecord{
		Scenario: e.scenName,
		Result:   e.res,
		Timing:   e.timing,
		Events:   make([]peekEvent, len(e.events)),
	}
	for i, ev := range e.events {
		rec.Events[i] = toPeekEvent(ev)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rec)
}

// defaultPeerTimeout bounds a peer probe: a dead or drowning peer must cost
// less than the engine run the probe is trying to save.
const defaultPeerTimeout = 750 * time.Millisecond

// probePeer asks the named peer for the key's recording and, on a hit,
// returns it as a cache entry ready to adopt. Every failure mode — refused
// probe, timeout, 404, malformed body — degrades to (nil, false): the
// caller just pays the engine run it would have paid anyway.
func (s *Server) probePeer(ctx context.Context, peer, key string) (*cacheEntry, bool) {
	peer = strings.TrimSuffix(peer, "/")
	if !strings.HasPrefix(peer, "http://") && !strings.HasPrefix(peer, "https://") {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(ctx, s.peerTimeout())
	defer cancel()
	u := fmt.Sprintf("%s/v1/peek?key=%s", peer, url.QueryEscape(key))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	var rec peekRecord
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&rec); err != nil {
		return nil, false
	}
	events := make([]core.Event, len(rec.Events))
	for i, pe := range rec.Events {
		events[i] = pe.event()
	}
	return &cacheEntry{
		key:      key,
		scenName: rec.Scenario,
		res:      rec.Result,
		timing:   rec.Timing,
		events:   events,
	}, true
}

func (s *Server) peerTimeout() time.Duration {
	if s.cfg.PeerTimeout > 0 {
		return s.cfg.PeerTimeout
	}
	return defaultPeerTimeout
}
