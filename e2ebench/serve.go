package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/gate"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/server"
)

// sbserverConfig is the configuration cmd/sbserver runs with when given no
// flags.
func sbserverConfig() server.Config {
	return server.Config{
		BatchSize:   8,
		BatchWait:   2 * time.Millisecond,
		QueueCap:    64,
		Seed:        1,
		CacheBytes:  64 << 20,
		BulkShare:   0.5,
		PeerProbe:   true,
		PeerTimeout: 750 * time.Millisecond,
	}
}

// sbgateConfig is the configuration cmd/sbgate runs with when given only
// its replicas. Client stays nil, the gateway's own default, unless the
// run is traced.
func sbgateConfig(urls []string) gate.Config {
	return gate.Config{
		Replicas:       urls,
		VNodes:         64,
		Seed:           1,
		HealthInterval: 500 * time.Millisecond,
		PeerProbe:      true,
	}
}

// listener serves one handler on an ephemeral loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return l, nil
}

// close shuts the listener and every connection and waits for Serve to
// return. Every benchmark request has completed by the time it is called.
func (l *listener) close() {
	_ = l.hs.Close()
	<-l.done
}

// replica is one sbserver on a loopback listener.
type replica struct {
	srv *server.Server
	ln  *listener
}

func startReplica(rec *recorder) (*replica, error) {
	s := server.New(sbserverConfig())
	h := s.Handler()
	if rec != nil {
		h = traceHandler(rec, "server.handle", h)
	}
	ln, err := listen(h)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &replica{srv: s, ln: ln}, nil
}

func (r *replica) close() {
	r.ln.close()
	r.srv.Close()
}

// reply is one answered POST /v1/runs as the benchmark's client saw it.
type reply struct {
	status          int
	xcache, replica string
	body            []byte // valid until the buffer it was read into is reused
	start, headers  time.Time
	end             time.Time // the terminal record has been read
}

// terminal is the last record of a run response, the only one parsed.
type terminal struct {
	Type      string `json:"type"`
	Success   bool   `json:"success"`
	PathBuilt bool   `json:"path_built"`
	Rounds    int    `json:"rounds"`
	Hops      int    `json:"hops"`
	Messages  uint64 `json:"messages_sent"`
	Events    uint64 `json:"events"`
	Error     string `json:"error"`
}

// client is the benchmark's own HTTP load generator, shared by a
// workload's clients; each keeps one request in flight and reads every
// response whole.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one run request to url, a replica's or the gateway's base URL
// plus runsPath, and reads the whole response into buf. A traced request
// carries ref so the handlers it reaches can join it.
func (c *client) post(buf *bytes.Buffer, url string, spec server.RunSpec, ref *traceRef) (reply, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ref != nil {
		req.Header.Set(traceHeader, ref.String())
	}
	rp := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	rp.headers = time.Now()
	rp.status = resp.StatusCode
	rp.xcache, rp.replica = resp.Header.Get("X-Cache"), resp.Header.Get("X-Replica")
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rp.end = time.Now()
	rp.body = buf.Bytes()
	return rp, err
}

// tracedPost is post wrapped in the client-side spans of one operation.
func (c *client) tracedPost(rec *recorder, buf *bytes.Buffer, url string, spec server.RunSpec) (reply, error) {
	req, root := rec.id(), rec.id()
	rp, err := c.post(buf, url, spec, &traceRef{req: req, parent: root})
	if err == nil {
		rec.span("client.ttfb", rec.id(), root, req, rp.start, rp.headers)
		rec.span("client.stream", rec.id(), root, req, rp.headers, rp.end)
		rec.span("client.op", root, 0, req, rp.start, rp.end)
	}
	return rp, err
}

// runsPath streams the run as NDJSON; the cache fill asks for the result
// record alone, since it reads nothing else.
const (
	runsPath     = "/v1/runs"
	runsPathNone = "/v1/runs?stream=none"
)

var errRejected = errors.New("rejected")

// checkFig10 verifies one fig10 response: status 200, the expected
// X-Cache, and a terminal result record of a successful 109-hop run.
func checkFig10(rp reply, xcache string) (terminal, error) {
	var t terminal
	switch rp.status {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return t, fmt.Errorf("%w: status %d", errRejected, rp.status)
	default:
		return t, fmt.Errorf("status %d", rp.status)
	}
	if rp.xcache != xcache {
		return t, fmt.Errorf("X-Cache %q, want %q", rp.xcache, xcache)
	}
	body := bytes.TrimRight(rp.body, "\n")
	if err := json.Unmarshal(body[bytes.LastIndexByte(body, '\n')+1:], &t); err != nil {
		return t, fmt.Errorf("terminal record: %w", err)
	}
	if t.Type != "result" {
		return t, fmt.Errorf("terminal record %q: %s", t.Type, t.Error)
	}
	if !t.Success || !t.PathBuilt || t.Hops != fig10.hops {
		return t, fmt.Errorf("fig10: success=%t path_built=%t hops=%d", t.Success, t.PathBuilt, t.Hops)
	}
	return t, nil
}

func fig10Spec(seed int64) server.RunSpec { return server.RunSpec{Scenario: "fig10", Seed: seed} }

// serveFixture is serve_fig10_cold: two clients POST fig10 to one replica,
// each request with a seed not used before in the run, so every request
// runs the engine and fills the cache.
type serveFixture struct {
	rep   *replica
	cl    *client
	rec   *recorder
	bufs  [2]bytes.Buffer
	mu    sync.Mutex
	seeds *rand.Rand
	used  map[int64]bool
	// served holds the seed and result record of each traced request, for
	// the engine reference runs.
	served []servedRun
	before server.MetricsSnapshot
}

type servedRun struct {
	seed int64
	t    terminal
}

// Cache-fill seeds count up from fillSeedBase, above the range drawSeed
// draws from, so no timed request hits a set-up entry.
const fillSeedBase = 1 << 41

func newServeFixture(seed int64, rec *recorder) (fixture, error) {
	rep, err := startReplica(rec)
	if err != nil {
		return nil, err
	}
	f := &serveFixture{rep: rep, cl: newClient(2), rec: rec, seeds: rand.New(rand.NewSource(seed)), used: map[int64]bool{}}
	// Fill the cache in sequence until it evicts, so that every timed
	// request pays a put and an eviction however long the run is.
	for i := int64(0); f.rep.srv.Metrics().Snapshot().Cache.Evictions == 0; i++ {
		if i == 5000 {
			f.close()
			return nil, fmt.Errorf("cache fill: no eviction after %d entries", i)
		}
		rp, err := f.cl.post(&f.bufs[0], rep.ln.url+runsPathNone, fig10Spec(fillSeedBase+i), nil)
		if err == nil {
			_, err = checkFig10(rp, "miss")
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("cache fill %d: %w", i, err)
		}
	}
	return f, nil
}

// nextSeed draws a seed no earlier request of the run used.
func (f *serveFixture) nextSeed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		s := drawSeed(f.seeds)
		if !f.used[s] {
			f.used[s] = true
			return s
		}
	}
}

func (f *serveFixture) op(c int, traced bool) outcome {
	seed := f.nextSeed()
	var rp reply
	var err error
	if traced {
		rp, err = f.cl.tracedPost(f.rec, &f.bufs[c], f.rep.ln.url+runsPath, fig10Spec(seed))
	} else {
		rp, err = f.cl.post(&f.bufs[c], f.rep.ln.url+runsPath, fig10Spec(seed), nil)
	}
	var t terminal
	if err == nil {
		t, err = checkFig10(rp, "miss")
	}
	if traced && err == nil {
		f.mu.Lock()
		f.served = append(f.served, servedRun{seed, t})
		f.mu.Unlock()
	}
	return outcome{lat: rp.end.Sub(rp.start), traced: traced, err: err}
}

func (f *serveFixture) begin() { f.before = f.rep.srv.Metrics().Snapshot() }

// refRuns is how many reference runs, or scenario builds on
// gate_fig10_hot, follow the timed phase of a traced serving run.
const refRuns = 40

func (f *serveFixture) finish(traced bool, ops int) (map[string]float64, error) {
	if !traced {
		return nil, nil
	}
	after := f.rep.srv.Metrics().Snapshot()
	m := httpLayerMetrics(f.rec)
	addServerMetrics(m, []server.MetricsSnapshot{f.before}, []server.MetricsSnapshot{after}, ops)

	// The replica builds its engine inside server.New, out of the tracing
	// wrappers' reach. Repeat some traced requests' seeds through
	// Engine.Run alone: untraced for the reference run time, traced for the
	// layer split, and both must match the replica's record.
	lib := rules.StandardLibrary()
	var runs []float64
	var layers []*engineLayers
	for i, s := range f.served {
		if i == refRuns {
			break
		}
		res, _, run, err := runEngine(lib, fig10, s.seed, nil)
		if err == nil {
			err = fig10.check(res, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		l := &engineLayers{rec: f.rec, Req: f.rec.id()}
		traced, _, _, err := runEngine(lib, fig10, s.seed, l)
		if err == nil {
			err = sameCounts(res, traced)
		}
		if err == nil && (res.Rounds != s.t.Rounds || res.MessagesSent != s.t.Messages || res.Events != s.t.Events) {
			err = fmt.Errorf("seed %d: replica reported rounds %d msgs %d events %d, Engine.Run %d %d %d",
				s.seed, s.t.Rounds, s.t.Messages, s.t.Events, res.Rounds, res.MessagesSent, res.Events)
		}
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		runs = append(runs, ms(int64(run)))
		layers = append(layers, l)
	}
	for k, v := range engineLayerMetrics(layers) {
		m[k] = v
	}
	m["core.fig10_run_ms"] = median(runs)
	m["server.cpu_wait_ms"] = m["server.run_ms"] - m["core.fig10_run_ms"]
	return m, nil
}

func (f *serveFixture) close() {
	f.cl.close()
	f.rep.close()
}

// gateSpecs is the number of fig10 seed variants gate_fig10_hot draws from.
const gateSpecs = 30

// gateFixture is gate_fig10_hot: two clients send Zipf draws over 30 fig10
// seed variants through the gateway to two replicas; every variant is
// warmed in set-up, so every timed request is an affinity-routed hit.
type gateFixture struct {
	reps   []*replica
	gw     *gate.Gateway
	ln     *listener
	cl     *client
	rec    *recorder
	egress *http.Transport // the gateway's outbound transport when traced
	bufs   [2]bytes.Buffer
	mu     sync.Mutex
	zipf   *rand.Zipf

	before  []server.MetricsSnapshot
	gBefore gate.GatewayMetrics
}

func newGateFixture(seed int64, rec *recorder) (fixture, error) {
	f := &gateFixture{cl: newClient(2), rec: rec}
	f.zipf = rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, gateSpecs-1)
	var urls []string
	for i := 0; i < 2; i++ {
		rep, err := startReplica(rec)
		if err != nil {
			f.close()
			return nil, err
		}
		f.reps = append(f.reps, rep)
		urls = append(urls, rep.ln.url)
	}
	cfg := sbgateConfig(urls)
	if rec != nil {
		// Pool settings equal to the gateway's default client.
		f.egress = &http.Transport{MaxIdleConnsPerHost: 128, IdleConnTimeout: 90 * time.Second}
		cfg.Client = &http.Client{Transport: traceTransport{rec: rec, base: f.egress}}
	}
	gw, err := gate.New(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	h := gw.Handler()
	if rec != nil {
		h = traceHandler(rec, "gate.handle", h)
	}
	if f.ln, err = listen(h); err != nil {
		f.close()
		return nil, err
	}
	// Warm every variant in a fixed order: one pass runs and caches it,
	// a second replays it.
	for _, xcache := range []string{"miss", "hit"} {
		for i := int64(1); i <= gateSpecs; i++ {
			rp, err := f.cl.post(&f.bufs[0], f.ln.url+runsPath, fig10Spec(i), nil)
			if err == nil {
				_, err = checkFig10(rp, xcache)
			}
			if err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up seed %d: %w", i, err)
			}
		}
	}
	return f, nil
}

func (f *gateFixture) op(c int, traced bool) outcome {
	f.mu.Lock()
	spec := fig10Spec(int64(f.zipf.Uint64()) + 1)
	f.mu.Unlock()
	var rp reply
	var err error
	if traced {
		rp, err = f.cl.tracedPost(f.rec, &f.bufs[c], f.ln.url+runsPath, spec)
	} else {
		rp, err = f.cl.post(&f.bufs[c], f.ln.url+runsPath, spec, nil)
	}
	if err == nil {
		_, err = checkFig10(rp, "hit")
	}
	return outcome{lat: rp.end.Sub(rp.start), traced: traced, err: err}
}

func (f *gateFixture) snapshots() []server.MetricsSnapshot {
	out := make([]server.MetricsSnapshot, len(f.reps))
	for i, r := range f.reps {
		out[i] = r.srv.Metrics().Snapshot()
	}
	return out
}

func (f *gateFixture) begin() {
	f.before = f.snapshots()
	f.gBefore = f.gw.Metrics()
}

func (f *gateFixture) finish(traced bool, ops int) (map[string]float64, error) {
	// Once per run: the gateway's answer must equal, byte for byte, the
	// owning replica's direct answer to the same spec.
	spec := fig10Spec(1)
	via, err := f.cl.post(&f.bufs[0], f.ln.url+runsPath, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("byte check via gateway: %w", err)
	}
	direct, err := f.cl.post(&f.bufs[1], via.replica+runsPath, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("byte check at replica %q: %w", via.replica, err)
	}
	if via.status != http.StatusOK || via.xcache != "hit" || !bytes.Equal(via.body, direct.body) {
		return nil, fmt.Errorf("byte check: gateway answer (%d, %s, %d bytes) differs from replica %s (%d bytes)",
			via.status, via.xcache, len(via.body), via.replica, len(direct.body))
	}
	if !traced {
		return nil, nil
	}
	after, gAfter := f.snapshots(), f.gw.Metrics()
	m := httpLayerMetrics(f.rec)
	addServerMetrics(m, f.before, after, ops)
	var routed []float64
	for i, r := range gAfter.Replicas {
		routed = append(routed, float64(r.Routed-f.gBefore.Replicas[i].Routed))
	}
	sort.Float64s(routed)
	m["gate.replica_skew"] = ratio(routed[len(routed)-1], routed[0])
	m["gate.retry_ratio"] = ratio(float64(gAfter.RetriesTotal-f.gBefore.RetriesTotal),
		float64(gAfter.RoutedTotal-f.gBefore.RoutedTotal))
	// Each replica builds the scenario for every request, hits included.
	var build time.Duration
	for i := 0; i < refRuns; i++ {
		start := time.Now()
		if _, err := scenario.Build(fig10.scenario, fig10.params); err != nil {
			return nil, err
		}
		build += time.Since(start)
	}
	m["scenario.build_ms"] = ms(int64(build)) / refRuns
	return m, nil
}

func (f *gateFixture) close() {
	if f.ln != nil {
		f.ln.close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, r := range f.reps {
		r.close()
	}
	if f.egress != nil {
		f.egress.CloseIdleConnections()
	}
	f.cl.close()
}

// httpLayerMetrics averages the traced requests' spans per request.
func httpLayerMetrics(rec *recorder) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	add := func(name string, d time.Duration) {
		sums[name] += float64(d) / 1e6
		counts[name]++
	}
	for _, spans := range rec.byReq() {
		got := map[string]time.Duration{}
		for _, s := range spans {
			got[s.Name] = s.dur()
		}
		if _, ok := got["client.op"]; !ok {
			continue
		}
		for _, name := range []string{"client.ttfb", "client.stream", "server.handle", "gate.handle", "gate.upstream"} {
			if d, ok := got[name]; ok {
				add(name, d)
			}
		}
		gh, okH := got["gate.handle"]
		gu, okU := got["gate.upstream"]
		sh, okS := got["server.handle"]
		if okH && okU {
			add("gate.self", gh-gu)
		}
		if okU && okS {
			add("gate.hop", gu-sh)
		}
	}
	m := map[string]float64{}
	for name, sum := range sums {
		m[name+"_ms"] = sum / float64(counts[name])
	}
	return m
}

// addServerMetrics adds the replicas' counters over the timed phase, summed
// across replicas.
func addServerMetrics(m map[string]float64, before, after []server.MetricsSnapshot, ops int) {
	var hits, misses, evictions, batches, batched uint64
	var cacheBytes int64
	phase := map[string][2]float64{} // name -> {sum ns, count}
	for i := range after {
		b, a := before[i], after[i]
		hits += a.Cache.Hits - b.Cache.Hits
		misses += a.Cache.Misses - b.Cache.Misses
		evictions += a.Cache.Evictions - b.Cache.Evictions
		batches += a.Batches - b.Batches
		batched += a.Batched - b.Batched
		cacheBytes += a.Cache.Bytes
		for _, name := range []string{"enqueue", "run", "respond"} {
			p := phase[name]
			p[0] += float64(a.Latency[name].SumNS - b.Latency[name].SumNS)
			p[1] += float64(a.Latency[name].Count - b.Latency[name].Count)
			phase[name] = p
		}
	}
	for name, p := range phase {
		m["server."+name+"_ms"] = ratio(p[0], p[1]) / 1e6
	}
	m["server.batch_size"] = ratio(float64(batched), float64(batches))
	m["server.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["server.evictions_per_op"] = ratio(float64(evictions), float64(ops))
	m["server.cache_mb"] = float64(cacheBytes) / (1 << 20)
}
