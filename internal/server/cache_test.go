package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// postRaw issues one run request and returns the status, the X-Cache
// header and the raw body bytes (the cache tests compare bodies
// byte-for-byte, so no decoding here).
func postRaw(t *testing.T, ts *httptest.Server, path string, spec RunSpec) (int, string, []byte) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get(headerXCache), data
}

// TestServerCacheHitBitIdentical: the second identical DES run is served
// from the result cache — X-Cache flips from miss to hit and the replayed
// NDJSON stream is byte-identical to the engine-served one, including the
// recorded phase timings. A differently-spelled but semantically equal
// spec (defaults written out, k=0 for absent) hits the same entry. The SSE
// stream and the single ?stream=none record replay byte-identically too,
// each checked on a fresh seed so that its miss is served live.
func TestServerCacheHitBitIdentical(t *testing.T) {
	s, ts := testServer(t, Config{})
	st1, xc1, body1 := postRaw(t, ts, "/v1/runs", RunSpec{Scenario: "fig10"})
	if st1 != http.StatusOK || xc1 != xcacheMiss {
		t.Fatalf("first run: status=%d X-Cache=%q, want 200 miss", st1, xc1)
	}
	st2, xc2, body2 := postRaw(t, ts, "/v1/runs", RunSpec{Scenario: "fig10"})
	if st2 != http.StatusOK || xc2 != xcacheHit {
		t.Fatalf("second run: status=%d X-Cache=%q, want 200 hit", st2, xc2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached stream is not byte-identical:\nlen %d vs %d", len(body1), len(body2))
	}

	// Same content address under a different spelling: every default spelled
	// out explicitly.
	gens := scenario.Generators()
	var params scenario.Params
	for _, g := range gens {
		if g.Name == "fig10" {
			params = scenario.Params{}
			for _, p := range g.Params {
				params[p.Name] = p.Default
			}
		}
	}
	st3, xc3, body3 := postRaw(t, ts, "/v1/runs", RunSpec{Scenario: "fig10", Params: params, K: 0, Shards: 1})
	if st3 != http.StatusOK || xc3 != xcacheHit {
		t.Fatalf("respelled run: status=%d X-Cache=%q, want 200 hit", st3, xc3)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("respelled spec missed the cache entry (bodies differ)")
	}

	// ?stream=none on the same key also hits — one entry serves every
	// response shape.
	st4, xc4, _ := postRaw(t, ts, "/v1/runs?stream=none", RunSpec{Scenario: "fig10"})
	if st4 != http.StatusOK || xc4 != xcacheHit {
		t.Fatalf("stream=none: status=%d X-Cache=%q, want 200 hit", st4, xc4)
	}

	for i, shape := range []string{"sse", "none"} {
		spec := RunSpec{Scenario: "fig10", Seed: int64(100 + i)}
		path := "/v1/runs?stream=" + shape
		stMiss, xcMiss, miss := postRaw(t, ts, path, spec)
		if stMiss != http.StatusOK || xcMiss != xcacheMiss {
			t.Fatalf("stream=%s first run: status=%d X-Cache=%q, want 200 miss", shape, stMiss, xcMiss)
		}
		stHit, xcHit, hit := postRaw(t, ts, path, spec)
		if stHit != http.StatusOK || xcHit != xcacheHit {
			t.Fatalf("stream=%s second run: status=%d X-Cache=%q, want 200 hit", shape, stHit, xcHit)
		}
		if !bytes.Equal(miss, hit) {
			t.Fatalf("stream=%s hit is not byte-identical to its miss:\nlen %d vs %d", shape, len(miss), len(hit))
		}
	}

	snap := s.Metrics().Snapshot()
	if snap.Cache.Hits != 5 || snap.Cache.Misses == 0 {
		t.Errorf("cache counters hits=%d misses=%d, want 5 hits", snap.Cache.Hits, snap.Cache.Misses)
	}
	if snap.Engine.Successes != 3 {
		t.Errorf("engine ran %d times, want 3 (hits must not re-execute)", snap.Engine.Successes)
	}
}

// TestServerCacheBypass: ?cache=bypass runs on the engine every time and
// never fills or reads the cache.
func TestServerCacheBypass(t *testing.T) {
	s, ts := testServer(t, Config{})
	for i := 0; i < 2; i++ {
		st, xc, _ := postRaw(t, ts, "/v1/runs?cache=bypass", RunSpec{Scenario: "fig10"})
		if st != http.StatusOK || xc != xcacheBypass {
			t.Fatalf("bypass run %d: status=%d X-Cache=%q", i, st, xc)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Cache.Bypass != 2 || snap.Cache.Hits != 0 || snap.Engine.Successes != 2 {
		t.Errorf("bypass=%d hits=%d engine=%d, want 2/0/2",
			snap.Cache.Bypass, snap.Cache.Hits, snap.Engine.Successes)
	}
}

// TestServerCacheDisabled: a negative byte budget disables storage, so
// identical sequential runs keep missing (coalescing would still apply to
// concurrent ones).
func TestServerCacheDisabled(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: -1})
	for i := 0; i < 2; i++ {
		st, xc, _ := postRaw(t, ts, "/v1/runs", RunSpec{Scenario: "fig10"})
		if st != http.StatusOK || xc != xcacheMiss {
			t.Fatalf("run %d with cache disabled: status=%d X-Cache=%q, want miss", i, st, xc)
		}
	}
}

// TestResultCacheLRU: the byte-accounted LRU evicts from the cold tail,
// promotes on get, replaces on duplicate put, and refuses entries larger
// than the whole budget.
func TestResultCacheLRU(t *testing.T) {
	entry := func(key string, events int) *cacheEntry {
		return &cacheEntry{key: key, scenName: "x", events: make([]core.Event, events)}
	}
	one := entryBytes(entry("a", 8))
	c := newResultCache(3*one + one/2) // room for three entries, not four

	for _, k := range []string{"a", "b", "c"} {
		c.put(entry(k, 8))
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted while under budget")
	}
	// a is now most recently used; inserting d must evict b (the tail).
	c.put(entry("d", 8))
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU kept b, the least recently used entry")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted, want b alone", k)
		}
	}
	snap := c.snapshot()
	if snap.Evictions != 1 || snap.Entries != 3 {
		t.Errorf("evictions=%d entries=%d, want 1 and 3", snap.Evictions, snap.Entries)
	}
	if snap.Bytes <= 0 || snap.Bytes > c.maxBytes {
		t.Errorf("bytes=%d out of [1, %d]", snap.Bytes, c.maxBytes)
	}

	// Replacing a key must not double-count its bytes.
	before := c.snapshot().Bytes
	c.put(entry("d", 8))
	if after := c.snapshot().Bytes; after != before {
		t.Errorf("replacement changed accounting: %d -> %d", before, after)
	}

	// An oversized entry is dropped, not stored.
	c.put(entry("huge", 10_000))
	if _, ok := c.get("huge"); ok {
		t.Error("entry larger than the whole budget was stored")
	}
}

// TestServerSingleflightCoalescing: concurrent identical specs share ONE
// engine run — every client gets the complete, byte-identical stream, and
// the engine executes once.
func TestServerSingleflightCoalescing(t *testing.T) {
	s, ts := testServer(t, Config{})
	const n = 8
	spec := RunSpec{Scenario: "slope", Params: scenario.Params{"top": 12}}

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	headers := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			headers[i] = resp.Header.Get(headerXCache)
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	misses := 0
	for i := 0; i < n; i++ {
		if headers[i] == xcacheMiss {
			misses++
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("client %d stream differs from client 0 (%d vs %d bytes)",
				i, len(bodies[i]), len(bodies[0]))
		}
		if !bytes.Contains(bodies[i], []byte(`"type":"result"`)) {
			t.Errorf("client %d stream has no terminal result", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d cache misses across %d identical concurrent runs, want exactly 1 leader", misses, n)
	}
	snap := s.Metrics().Snapshot()
	if snap.Engine.Successes != 1 {
		t.Errorf("engine ran %d times for %d coalesced clients, want 1", snap.Engine.Successes, n)
	}
	if snap.Cache.Coalesced+snap.Cache.Hits != n-1 {
		t.Errorf("coalesced=%d hits=%d, want them to cover the %d followers",
			snap.Cache.Coalesced, snap.Cache.Hits, n-1)
	}
	if snap.Completed != n {
		t.Errorf("completed=%d, want %d", snap.Completed, n)
	}
}

// TestServerClassIsolation: the bulk class has its own (smaller) admission
// limit — saturating it rejects further bulk work with 429 while
// interactive requests keep being admitted, and vice versa interactive
// pressure never blocks on bulk's counter.
func TestServerClassIsolation(t *testing.T) {
	s, ts := testServer(t, Config{QueueCap: 8})
	// Bulk limit = 8 * 0.5 = 4. Pin bulk at its limit.
	s.pending[classBulk].Store(4)
	body, _ := json.Marshal(RunSpec{Scenario: "fig10"})

	resp, err := http.Post(ts.URL+"/v1/runs?class=bulk&cache=bypass", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bulk over its limit: status=%d, want 429", resp.StatusCode)
	}

	// Interactive still has 8 slots of headroom.
	st, _, _ := postRaw(t, ts, "/v1/runs", RunSpec{Scenario: "fig10"})
	if st != http.StatusOK {
		t.Fatalf("interactive while bulk saturated: status=%d, want 200", st)
	}
	s.pending[classBulk].Store(0)

	// The rejection is attributed to the bulk class.
	snap := s.Metrics().Snapshot()
	if snap.Classes["bulk"].Rejected != 1 || snap.Classes["interactive"].Rejected != 0 {
		t.Errorf("per-class rejects = %+v, want bulk:1 interactive:0", snap.Classes)
	}
	if snap.Classes["interactive"].Completed != 1 {
		t.Errorf("interactive completed = %d, want 1", snap.Classes["interactive"].Completed)
	}

	// An unknown class is a client error.
	resp, err = http.Post(ts.URL+"/v1/runs?class=background", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class: status=%d, want 400", resp.StatusCode)
	}
}

// TestCacheKeyEquivalence: the content address normalizes every spelling
// of the same run — and only those.
func TestCacheKeyEquivalence(t *testing.T) {
	base := RunSpec{Scenario: "slope", Params: scenario.Params{"top": 8}}
	key := func(sp RunSpec) string {
		t.Helper()
		k, err := sp.Key(1)
		if err != nil {
			t.Fatalf("Key(%+v): %v", sp, err)
		}
		return k
	}
	want := key(base)
	for _, same := range []RunSpec{
		{Scenario: "slope"}, // default params
		{Scenario: "slope", Params: scenario.Params{"rise": 0}},      // explicit default
		{Scenario: "slope", Params: scenario.Params{"top": 8}, K: 1}, // k=1 == serial == k=0
		{Scenario: "slope", Shards: 1},                               // shards=1 == unsharded
		{Scenario: "slope", Seed: 1},                                 // seed 0 -> base seed 1
	} {
		if got := key(same); got != want {
			t.Errorf("spec %+v key = %q, want %q", same, got, want)
		}
	}
	for _, diff := range []RunSpec{
		{Scenario: "slope", Params: scenario.Params{"top": 9}},
		{Scenario: "slope", K: 4},
		{Scenario: "slope", Shards: 2},
		{Scenario: "slope", Seed: 2},
		{Scenario: "slope", MaxRounds: 10},
	} {
		if got := key(diff); got == want {
			t.Errorf("spec %+v collides with the base key %q", diff, want)
		}
	}
}

// TestServerDifferentialDeterminism: two semantically equal specs served
// with the cache disabled (so both actually execute) produce byte-identical
// result records modulo timing — the determinism claim the cache rests on.
func TestServerDifferentialDeterminism(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: -1})
	strip := func(body []byte) string {
		var rec map[string]any
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatalf("decode result: %v", err)
		}
		delete(rec, "timing")
		out, _ := json.Marshal(rec)
		return string(out)
	}
	_, _, b1 := postRaw(t, ts, "/v1/runs?stream=none", RunSpec{Scenario: "slope", Params: scenario.Params{"top": 8}})
	_, _, b2 := postRaw(t, ts, "/v1/runs?stream=none", RunSpec{Scenario: "slope", Params: scenario.Params{"top": 8, "rise": 0}, K: 1, Shards: 1})
	if r1, r2 := strip(b1), strip(b2); r1 != r2 {
		t.Fatalf("equal keys, different results:\n%s\n%s", r1, r2)
	}
}

// TestEventSpoolSteadyStateAllocs pins the pooled spool path: once warm,
// an OnEvent burst plus drain/recycle allocates nothing.
func TestEventSpoolSteadyStateAllocs(t *testing.T) {
	sp := newEventSpool()
	ev := core.Event{Kind: core.EventRoundStarted, Round: 1}
	// Warm the buffers past the initial growth.
	for i := 0; i < 300; i++ {
		sp.OnEvent(ev)
	}
	raw, _ := sp.drain()
	sp.recycle(raw)

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			sp.OnEvent(ev)
		}
		raw, _ := sp.drain()
		sp.recycle(raw)
		select {
		case <-sp.wake:
		default:
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state spool cycle allocates %.1f times, want 0", allocs)
	}
	sp.release()
}
