package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/speckey"
)

const (
	defaultVNodes         = 64
	defaultHealthInterval = 500 * time.Millisecond

	headerXCache    = "X-Cache"
	headerSpecKey   = "X-Spec-Key"
	headerReplica   = "X-Replica"    // which replica served this response
	headerPeerProbe = "X-Peer-Probe" // peer URL the replica may consult on a miss

	maxSpecBody = 1 << 20
)

// Config tunes the gateway.
type Config struct {
	// Replicas are the sbserver base URLs the ring is built over
	// (required, e.g. "http://127.0.0.1:8081").
	Replicas []string
	// VNodes is the virtual-node count per replica (default 64): enough
	// points that key segments spread within a few percent of even.
	VNodes int
	// Seed is the replicas' base seed, folded into canonical keys exactly
	// as the replicas fold it (default 1). A mismatch would not break
	// correctness — replicas compute their own cache keys — but would
	// route equivalent spellings of default-seed specs to different
	// replicas, wasting affinity.
	Seed int64
	// HealthInterval is the /healthz polling cadence and per-probe
	// timeout (default 500ms; negative disables the background loop —
	// the proxy path still demotes reactively).
	HealthInterval time.Duration
	// PeerProbe attaches X-Peer-Probe headers naming the key's ring
	// neighbour so replicas can adopt each other's recordings (the
	// replicas must run with -peer-probe).
	PeerProbe bool
	// Client is the outbound HTTP client; the default tunes
	// MaxIdleConnsPerHost for fan-in proxying.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = defaultHealthInterval
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return c
}

// Gateway is the affinity-routing reverse proxy over a replica fleet.
type Gateway struct {
	cfg      Config
	ring     *ring
	replicas []*replica
	client   *http.Client
	mux      *http.ServeMux

	routedTotal  atomic.Uint64
	retriesTotal atomic.Uint64
	errorsTotal  atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
}

// New builds a gateway over the replica URLs and starts its health loop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gate: no replicas configured")
	}
	g := &Gateway{
		cfg:    cfg,
		client: cfg.Client,
		mux:    http.NewServeMux(),
		stop:   make(chan struct{}),
	}
	urls := make([]string, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		u = strings.TrimSuffix(u, "/")
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("gate: replica %q: want an http(s) base URL", u)
		}
		urls[i] = u
		g.replicas = append(g.replicas, &replica{url: u})
	}
	g.ring = newRing(urls, cfg.VNodes)
	g.mux.HandleFunc("/v1/runs", g.handleRuns)
	g.mux.HandleFunc("/v1/scenarios", g.handleScenarios)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.probeAll() // seed states synchronously so the first request routes sanely
	if cfg.HealthInterval > 0 {
		go g.healthLoop()
	}
	return g, nil
}

// Handler returns the HTTP surface — the same routes the replicas serve,
// so clients talk to a fleet exactly as they talked to one sbserver.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Close stops the health loop. In-flight proxied streams finish on their
// own contexts.
func (g *Gateway) Close() { g.stopOnce.Do(func() { close(g.stop) }) }

func gwError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"type": "error", "error": fmt.Sprintf(format, args...),
	})
}

// handleRuns routes one run by spec affinity and proxies the stream.
//
// The spec is canonicalized with the replicas' own key function
// (speckey), hashed onto the ring, and sent to the first accepting
// replica in ring order. A refusal that provably did not execute —
// a dial error (never reached it) or a 503 (refused at admission while
// draining) — moves the spec to the next candidate (every run is a
// deterministic DES run, so a retry is safe), and a scale-down loses
// nothing; responses already streaming bytes are past the point of no
// return and are never retried. The X-Peer-Probe header
// names the key's nearest other non-down replica: on a cache miss the
// target probes it before running the engine, which is exactly the warm
// previous owner during a drain hand-off.
func (g *Gateway) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		gwError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBody))
	if err != nil {
		gwError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var spec speckey.Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		gwError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	key, err := spec.Key(g.cfg.Seed)
	if err != nil {
		gwError(w, http.StatusBadRequest, "%v", err)
		return
	}
	order := g.ring.ordered(speckey.Hash(key))

	tried := 0
	for i, rep := range order {
		rp := g.replicas[rep]
		if !rp.accepting() {
			continue
		}
		tried++
		status, sent, err := g.proxyRun(w, r, rp, g.peerFor(order, i), key, body)
		switch {
		case err == nil && status != http.StatusServiceUnavailable:
			return // proxied to completion (whatever the status — 429s etc. pass through)
		case sent:
			// Bytes already reached the client: the response is theirs now,
			// success or not. Never retry a stream mid-flight.
			g.errorsTotal.Add(1)
			rp.errors.Add(1)
			return
		default:
			g.markRefused(rp, isDialError(err))
			rp.retries.Add(1)
			g.retriesTotal.Add(1)
		}
	}
	if tried == 0 {
		gwError(w, http.StatusServiceUnavailable, "no replica accepting requests")
		return
	}
	gwError(w, http.StatusServiceUnavailable, "all candidate replicas refused")
}

// peerFor picks the X-Peer-Probe target for the candidate at position i:
// the nearest other replica in ring order that is not down. During a
// drain hand-off that is the draining previous owner — still warm, still
// answering peeks even though it refuses new runs.
func (g *Gateway) peerFor(order []int, i int) string {
	if !g.cfg.PeerProbe {
		return ""
	}
	for j := range order {
		if j == i {
			continue
		}
		rp := g.replicas[order[j]]
		if rp.state.Load() != stateDown {
			return rp.url
		}
	}
	return ""
}

// errRefused marks an in-protocol 503 (admission refusal while draining).
var errRefused = fmt.Errorf("gate: refused (503)")

// proxyRun sends one attempt to one replica and streams the response.
// Returns the upstream status, whether any response bytes reached the
// client, and an error when the attempt should be considered refused.
func (g *Gateway) proxyRun(w http.ResponseWriter, r *http.Request, rp *replica, peer, key string, body []byte) (int, bool, error) {
	u := rp.url + "/v1/runs"
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if ac := r.Header.Get("Accept"); ac != "" {
		req.Header.Set("Accept", ac)
	}
	if peer != "" {
		req.Header.Set(headerPeerProbe, peer)
	}
	rp.routed.Add(1)
	g.routedTotal.Add(1)
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, false, errRefused
	}
	switch resp.Header.Get(headerXCache) {
	case "hit":
		rp.hits.Add(1)
	case "peer":
		rp.peers.Add(1)
	}
	h := w.Header()
	for _, name := range []string{"Content-Type", "Cache-Control", headerXCache, headerSpecKey} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	if h.Get(headerSpecKey) == "" {
		h.Set(headerSpecKey, key)
	}
	h.Set(headerReplica, rp.url)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	sent := false
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			sent = true
			if _, werr := w.Write(buf[:n]); werr != nil {
				// Client gone: abandoning the copy cancels the upstream
				// request through r.Context(), which the replica observes
				// as a mid-run client disconnect (and rolls back).
				return resp.StatusCode, sent, nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return resp.StatusCode, sent, nil
		}
		if rerr != nil {
			if sent {
				return resp.StatusCode, sent, rerr
			}
			return resp.StatusCode, false, rerr
		}
	}
}

// handleScenarios proxies the registry listing from any accepting replica.
func (g *Gateway) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		gwError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, rp := range g.replicas {
		if !rp.accepting() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rp.url+"/v1/scenarios", nil)
		if err != nil {
			continue
		}
		resp, err := g.client.Do(req)
		if err != nil {
			g.markRefused(rp, true)
			continue
		}
		func() {
			defer resp.Body.Close()
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.Header().Set(headerReplica, rp.url)
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
		}()
		return
	}
	gwError(w, http.StatusServiceUnavailable, "no replica accepting requests")
}

// handleHealthz reports fleet liveness: 200 while at least one replica
// accepts work (the fleet is up even mid-drain), 503 otherwise. The body
// lists per-replica states either way.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type repState struct {
		URL   string `json:"url"`
		State string `json:"state"`
	}
	doc := struct {
		Status   string     `json:"status"`
		Replicas []repState `json:"replicas"`
	}{Status: "unavailable"}
	for _, rp := range g.replicas {
		if rp.accepting() {
			doc.Status = "ok"
		}
		doc.Replicas = append(doc.Replicas, repState{URL: rp.url, State: rp.stateName()})
	}
	w.Header().Set("Content-Type", "application/json")
	if doc.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(doc)
}
