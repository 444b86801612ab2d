package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// LoadConfig drives RunLoad: Clients closed-loop workers each issue
// PerClient sequential requests of Spec against BaseURL, reading the full
// NDJSON stream of every run.
type LoadConfig struct {
	BaseURL   string
	Clients   int
	PerClient int
	Spec      RunSpec
	// Targets, when non-empty, bypasses BaseURL and spreads requests
	// round-robin over these base URLs — the affinity-blind baseline a
	// gateway's spec-routed distribution is compared against. Each request
	// is tallied per target either way (from the X-Replica header when a
	// gateway adds one, else the target URL).
	Targets []string
	// Class forces every request into one priority class ("interactive" or
	// "bulk"); empty leaves the server default (interactive) unless
	// BulkFraction mixes.
	Class string
	// BulkFraction sends this fraction of requests as ?class=bulk (0 = all
	// whatever Class says). The draw is seeded per worker, so a config is a
	// reproducible mix.
	BulkFraction float64
	// ZipfN spreads the load over N distinct specs (seed variants of Spec)
	// drawn from a Zipf distribution — the classic cache workload: a hot
	// head of repeated specs and a long cold tail. 0 or 1 sends the one
	// spec every time.
	ZipfN int
	// ZipfS is the Zipf skew exponent (must be > 1; default 1.5 — lower is
	// flatter, higher concentrates on the head).
	ZipfS float64
	// CacheMode is passed through as ?cache=<mode>; "bypass" makes every
	// request run on the engine, so identical specs measure execution, not
	// replay.
	CacheMode string
	// Client optionally overrides the HTTP client (tests pass their
	// httptest server's client).
	Client *http.Client
}

// ClassLoadReport is one priority class's slice of the load outcome.
type ClassLoadReport struct {
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
}

// TargetLoadReport is one backend's slice of the outcome: keyed by the
// X-Replica header when the requests went through a gateway, by the
// round-robin target URL in direct -targets mode.
type TargetLoadReport struct {
	Requests  int `json:"requests"`
	CacheHits int `json:"cache_hits"`
	PeerHits  int `json:"peer_hits"`
}

// LoadReport is the generator's aggregate outcome. Latencies are full
// request wall times (POST to stream close), in nanoseconds. PerClass
// splits the outcome counts by priority class, and the cache counters
// tally the X-Cache header of every answered request.
type LoadReport struct {
	Clients    int                         `json:"clients"`
	Requests   int                         `json:"requests"`
	Completed  int                         `json:"completed"`
	Failed     int                         `json:"failed"`
	Rejected   int                         `json:"rejected"` // 429/503 admission refusals
	Events     int64                       `json:"events"`   // streamed event records observed
	PerClass   map[string]ClassLoadReport  `json:"per_class,omitempty"`
	PerTarget  map[string]TargetLoadReport `json:"per_target,omitempty"`
	CacheHits  int                         `json:"cache_hits"`
	CacheMiss  int                         `json:"cache_misses"`
	Coalesced  int                         `json:"cache_coalesced"`
	Bypassed   int                         `json:"cache_bypassed"`
	PeerHits   int                         `json:"cache_peer_hits"`
	ElapsedNS  int64                       `json:"elapsed_ns"`
	RunsPerSec float64                     `json:"runs_per_sec"`
	MeanNS     int64                       `json:"latency_mean_ns"`
	P50NS      int64                       `json:"latency_p50_ns"`
	P95NS      int64                       `json:"latency_p95_ns"`
	MaxNS      int64                       `json:"latency_max_ns"`
}

// RunLoad runs the closed-loop load: every client retries nothing and
// pipelines nothing — one request in flight per client. An admission
// refusal (429/503) counts as rejected, a stream that ends without a
// successful result record as failed.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	if cfg.Clients < 1 || cfg.PerClient < 1 {
		return LoadReport{}, fmt.Errorf("server: load needs clients >= 1 and per-client >= 1")
	}
	if cfg.BulkFraction < 0 || cfg.BulkFraction > 1 {
		return LoadReport{}, fmt.Errorf("server: bulk fraction %g outside [0,1]", cfg.BulkFraction)
	}
	client := cfg.Client
	if client == nil {
		// Every closed-loop client keeps one connection busy; an idle-pool
		// smaller than the client count would churn connections under load.
		perHost := cfg.Clients
		if perHost < http.DefaultMaxIdleConnsPerHost {
			perHost = http.DefaultMaxIdleConnsPerHost
		}
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        perHost * (len(cfg.Targets) + 1),
			MaxIdleConnsPerHost: perHost,
		}}
	}

	// Pre-marshal the spec bodies: one per Zipf rank (seed variants of the
	// base spec), or just the one. Rank 0 keeps the base seed so a
	// non-Zipf config is the degenerate single-spec case.
	nSpecs := cfg.ZipfN
	if nSpecs < 1 {
		nSpecs = 1
	}
	bodies := make([][]byte, nSpecs)
	for i := range bodies {
		sp := cfg.Spec
		if i > 0 {
			base := sp.Seed
			if base == 0 {
				base = 1
			}
			sp.Seed = base + int64(i)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			return LoadReport{}, err
		}
		bodies[i] = b
	}
	zipfS := cfg.ZipfS
	if zipfS <= 1 {
		zipfS = 1.5
	}

	// One URL per (base, class, cache-mode) combination. In -targets mode
	// the base rotates round-robin per request; otherwise it is BaseURL.
	bases := cfg.Targets
	if len(bases) == 0 {
		bases = []string{cfg.BaseURL}
	}
	runURL := func(base, class string) string {
		q := url.Values{}
		if class != "" {
			q.Set("class", class)
		}
		if cfg.CacheMode != "" {
			q.Set("cache", cfg.CacheMode)
		}
		u := base + "/v1/runs"
		if enc := q.Encode(); enc != "" {
			u += "?" + enc
		}
		return u
	}

	type clientTally struct {
		events    int64
		latencies []int64
		perClass  [numClasses]ClassLoadReport
		xcache    map[string]int
		targets   map[string]TargetLoadReport
	}
	tallies := make([]clientTally, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(worker int, t *clientTally) {
			defer wg.Done()
			t.xcache = make(map[string]int, 4)
			t.targets = make(map[string]TargetLoadReport, len(bases))
			rng := rand.New(rand.NewSource(int64(worker)*0x9E3779B9 + 1))
			var zipf *rand.Zipf
			if nSpecs > 1 {
				zipf = rand.NewZipf(rng, zipfS, 1, uint64(nSpecs-1))
			}
			for i := 0; i < cfg.PerClient; i++ {
				if ctx.Err() != nil {
					return
				}
				class := classInteractive
				name := cfg.Class
				if name == "bulk" || (cfg.BulkFraction > 0 && rng.Float64() < cfg.BulkFraction) {
					class, name = classBulk, "bulk"
				}
				body := bodies[0]
				if zipf != nil {
					body = bodies[zipf.Uint64()]
				}
				base := bases[(worker*cfg.PerClient+i)%len(bases)]
				t0 := time.Now()
				ok, rejected, events, xc, replica := doRun(ctx, client, runURL(base, name), body)
				t.latencies = append(t.latencies, int64(time.Since(t0)))
				t.events += events
				if xc != "" {
					t.xcache[xc]++
				}
				label := replica
				if label == "" && len(cfg.Targets) > 0 {
					label = base
				}
				if label != "" {
					tt := t.targets[label]
					tt.Requests++
					if xc == xcacheHit {
						tt.CacheHits++
					}
					if xc == xcachePeer {
						tt.PeerHits++
					}
					t.targets[label] = tt
				}
				t.perClass[class].Requests++
				switch {
				case ok:
					t.perClass[class].Completed++
				case rejected:
					t.perClass[class].Rejected++
				default:
					t.perClass[class].Failed++
				}
			}
		}(c, &tallies[c])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{
		Clients:   cfg.Clients,
		ElapsedNS: int64(elapsed),
		PerClass:  make(map[string]ClassLoadReport, numClasses),
	}
	var all []int64
	perClass := [numClasses]ClassLoadReport{}
	for _, t := range tallies {
		for c := 0; c < numClasses; c++ {
			perClass[c].Requests += t.perClass[c].Requests
			perClass[c].Completed += t.perClass[c].Completed
			perClass[c].Failed += t.perClass[c].Failed
			perClass[c].Rejected += t.perClass[c].Rejected
		}
		rep.Events += t.events
		rep.CacheHits += t.xcache[xcacheHit]
		rep.CacheMiss += t.xcache[xcacheMiss]
		rep.Coalesced += t.xcache[xcacheCoalesce]
		rep.Bypassed += t.xcache[xcacheBypass]
		rep.PeerHits += t.xcache[xcachePeer]
		for label, tt := range t.targets {
			if rep.PerTarget == nil {
				rep.PerTarget = make(map[string]TargetLoadReport, len(bases))
			}
			agg := rep.PerTarget[label]
			agg.Requests += tt.Requests
			agg.CacheHits += tt.CacheHits
			agg.PeerHits += tt.PeerHits
			rep.PerTarget[label] = agg
		}
		all = append(all, t.latencies...)
	}
	for c := 0; c < numClasses; c++ {
		if perClass[c].Requests > 0 {
			rep.PerClass[classNames[c]] = perClass[c]
		}
		rep.Completed += perClass[c].Completed
		rep.Failed += perClass[c].Failed
		rep.Rejected += perClass[c].Rejected
	}
	rep.Requests = len(all)
	if elapsed > 0 {
		rep.RunsPerSec = float64(rep.Completed) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum int64
		for _, v := range all {
			sum += v
		}
		rep.MeanNS = sum / int64(len(all))
		rep.P50NS = all[len(all)/2]
		rep.P95NS = all[len(all)*95/100]
		rep.MaxNS = all[len(all)-1]
	}
	return rep, nil
}

// doRun issues one streamed run and consumes it to the terminal record.
func doRun(ctx context.Context, client *http.Client, url string, body []byte) (ok, rejected bool, events int64, xcache, replica string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, false, 0, "", ""
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, false, 0, "", ""
	}
	defer resp.Body.Close()
	xcache = resp.Header.Get(headerXCache)
	replica = resp.Header.Get("X-Replica")
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return false, true, 0, xcache, replica
	}
	if resp.StatusCode != http.StatusOK {
		return false, false, 0, xcache, replica
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var rec struct {
		Type    string `json:"type"`
		Success bool   `json:"success"`
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		switch rec.Type {
		case "event":
			events++
		case "result":
			ok = rec.Success
		case "error":
			ok = false
		}
	}
	return ok, false, events, xcache, replica
}
