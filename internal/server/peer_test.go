package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestServerIgnoresPeerProbeByDefault: a replica without PeerProbe ignores
// an X-Peer-Probe header even when the named peer answers with a
// recording, so a client naming a server it controls cannot plant a
// forged result in the cache: the run misses and moves the golden 109
// blocks. The same forged peer is adopted once peering is on, which is why
// peering stays off on replicas that clients reach directly.
func TestServerIgnoresPeerProbeByDefault(t *testing.T) {
	forged := peekRecord{Scenario: "fig10", Result: core.Result{Success: true, PathBuilt: true, Hops: 1}}
	var probes atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(forged)
	}))
	defer peer.Close()

	for _, tc := range []struct {
		peering bool
		xcache  string
		hops    int
		probes  int64
	}{
		{peering: false, xcache: xcacheMiss, hops: 109, probes: 0},
		{peering: true, xcache: xcachePeer, hops: 1, probes: 1},
	} {
		probes.Store(0)
		_, ts := testServer(t, Config{PeerProbe: tc.peering})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?stream=none",
			bytes.NewReader([]byte(`{"scenario":"fig10"}`)))
		req.Header.Set(headerPeerProbe, peer.URL)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var rec streamRecord
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || rec.Type != "result" {
			t.Fatalf("peering=%v: status=%d record=%+v err=%v", tc.peering, resp.StatusCode, rec, err)
		}
		if got := resp.Header.Get(headerXCache); got != tc.xcache || rec.Hops != tc.hops {
			t.Errorf("peering=%v: X-Cache=%q hops=%d, want %q and %d", tc.peering, got, rec.Hops, tc.xcache, tc.hops)
		}
		if got := probes.Load(); got != tc.probes {
			t.Errorf("peering=%v: the named peer was probed %d times, want %d", tc.peering, got, tc.probes)
		}
	}
}
