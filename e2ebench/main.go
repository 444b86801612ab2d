// Command e2ebench is the repository's end-to-end benchmark. It runs one
// closed-loop workload against the program's public entry points
// (core.Engine.Run, the sbserver handler, the sbgate handler), checks every
// output, and prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics, as the JSON object on the last line of standard output. Run it
// from the repository root:
//
//	bash e2ebench/run.sh --workload engine_slope_k16 --seed 1 --seconds 20 --trace 0
//
// NOTES.md records why each workload exists and what each metric measures.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fixture is one workload's running system: built by a set-up, driven by
// ops in the timed phase, checked and measured by finish.
type fixture interface {
	// op runs one operation as client c. A traced op goes through the
	// tracing wrappers.
	op(c int, traced bool) outcome
	// begin snapshots the program's counters as the timed phase starts.
	begin()
	// finish runs the once-per-run checks and, for a traced run, returns
	// the per-layer metrics of the timed phase (ops completed ops).
	finish(traced bool, ops int) (map[string]float64, error)
	close()
}

type outcome struct {
	lat    time.Duration
	traced bool
	err    error // nil, errRejected-wrapped, or a failed check
}

type workload struct {
	clients int
	// setups is how many fresh set-ups a run makes; setup_s is their
	// median and the last one is timed.
	setups int
	build  func(seed int64, rec *recorder) (fixture, error)
}

var workloads = map[string]workload{
	"engine_slope_k16": {clients: 1, setups: 3, build: newEngineFixture},
	"serve_fig10_cold": {clients: 2, setups: 1, build: newServeFixture},
	"gate_fig10_hot":   {clients: 2, setups: 5, build: newGateFixture},
}

type unitName struct{ name, unit string }

// endToEnd is the end-to-end metrics of an untraced run's JSON line, the
// ones BENCHMARK.json bounds.
var endToEnd = []unitName{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MB"},
}

// p95 is printed with the end-to-end metrics but left out of the JSON line:
// its run-to-run spread on a 2-vCPU VM is too wide for any bound
// (NOTES.md). The traced run reports it as the unbounded client.p95_ms.
var p95 = unitName{"p95_ms", "ms"}

// perLayer is every per-layer metric of a traced run. A layer the workload
// does not reach reads 0.
var perLayer = []unitName{
	{"scenario.build_ms", "ms"},
	{"core.session_ms", "ms"},
	{"sim.boot_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"core.blockcode_self_ms", "ms"},
	{"msg.send_ms", "ms"},
	{"lattice.move_ms", "ms"},
	{"lattice.plan_ms", "ms"},
	{"core.rounds", "count"},
	{"lattice.hops", "count"},
	{"lattice.move_calls", "count"},
	{"lattice.move_accept_ratio", "ratio"},
	{"msg.sent", "count"},
	{"sim.events", "count"},
	{"core.hook_calls", "count"},
	{"core.sense_calls", "count"},
	{"core.cands_dropped", "count"},
	{"core.fig10_run_ms", "ms"},
	{"server.handle_ms", "ms"},
	{"server.enqueue_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.batch_size", "count"},
	{"server.cpu_wait_ms", "ms"},
	{"server.respond_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.evictions_per_op", "count"},
	{"server.cache_mb", "MB"},
	{"client.p95_ms", "ms"},
	{"client.ttfb_ms", "ms"},
	{"client.stream_ms", "ms"},
	{"gate.handle_ms", "ms"},
	{"gate.upstream_ms", "ms"},
	{"gate.self_ms", "ms"},
	{"gate.hop_ms", "ms"},
	{"gate.retry_ratio", "ratio"},
	{"gate.replica_skew", "ratio"},
	{"go.sched_wait_p95_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func main() {
	workload := flag.String("workload", "", "engine_slope_k16, serve_fig10_cold or gate_fig10_hot")
	seed := flag.Int64("seed", 1, "workload seed: draws every input the program sees")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run, print the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// traceDir is where a traced run writes its spans, under the checkout's
// build directory.
const traceDir = ".bench_build/trace"

func run(name string, seed int64, seconds int, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	h := hostRecord()
	hj, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Printf("host %s\n", hj)

	var rec *recorder
	setups := w.setups
	if traced {
		rec, setups = newRecorder(), 1
	}
	fx, setupS, err := setUp(w, seed, rec, setups)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer fx.close()
	p := drive(fx, w.clients, time.Duration(seconds)*time.Second, traced)

	var attempted, failed, rejected int
	var lats, tracedLats []float64
	var firstErr error
	for _, rs := range p.outcomes {
		for _, r := range rs {
			attempted++
			switch {
			case errors.Is(r.err, errRejected):
				rejected++
			case r.err != nil:
				failed++
			case r.traced:
				tracedLats = append(tracedLats, ms(int64(r.lat)))
			default:
				lats = append(lats, ms(int64(r.lat)))
			}
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	completed := attempted - failed - rejected
	layers, err := fx.finish(traced, completed)
	if err != nil {
		// A failed once-per-run check counts as one more failed op.
		attempted++
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: first failure:", firstErr)
	}
	fmt.Printf("workload %s seed %d trace %t: attempted %d completed %d failed %d rejected %d in %.3f s\n",
		name, seed, traced, attempted, completed, failed, rejected, p.wall.Seconds())

	e2e := map[string]float64{
		"setup_s":       median(setupS),
		"p50_ms":        percentile(lats, 50),
		"p95_ms":        percentile(lats, 95),
		"ops_per_s":     float64(completed) / p.wall.Seconds(),
		"cpu_ms_per_op": ratio(ms(int64(p.cpu)), float64(completed)),
		"max_rss_mb":    maxRSSMB(),
	}
	fmt.Printf("setup_s samples %v\n", setupS)
	printMetrics(append(endToEnd, p95), e2e)
	names, values := endToEnd, e2e
	if traced {
		names, values = perLayer, layers
		if values == nil {
			values = map[string]float64{}
		}
		values["client.p95_ms"] = e2e["p95_ms"]
		values["go.sched_wait_p95_ms"] = schedWaitP95(p.rt0, p.rt1)
		values["go.gc_cpu_frac"] = ratio(p.rt1.gcCPU-p.rt0.gcCPU, p.rt1.totalCPU-p.rt0.totalCPU)
		values["go.alloc_mb_per_op"] = ratio(p.rt1.allocs-p.rt0.allocs, float64(completed)) / (1 << 20)
		plain, withSpans := percentile(lats, 50), percentile(tracedLats, 50)
		values["trace.untraced_p50_ms"] = plain
		values["trace.traced_p50_ms"] = withSpans
		values["trace.overhead_pct"] = 100 * (ratio(withSpans, plain) - 1)
		path, err := rec.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed), h)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans %s\n", path)
		printMetrics(names, values)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   failed == 0 && rejected == 0,
		Attempted: attempted,
		Failed:    failed + rejected,
		Metrics:   map[string]metric{},
	}
	for _, n := range names {
		out.Metrics[n.name] = metric{Value: values[n.name], Unit: n.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp makes n fresh set-ups, closing each but the last, and returns the
// last with every set-up's length in seconds.
func setUp(w workload, seed int64, rec *recorder, n int) (fixture, []float64, error) {
	var fx fixture
	var secs []float64
	for i := 0; i < n; i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		start := time.Now()
		f, err := w.build(seed, rec)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		fx = f
	}
	return fx, secs, nil
}

// phase is what the timed phase leaves: each client's op outcomes and the
// process counters around it.
type phase struct {
	outcomes  [][]outcome
	wall, cpu time.Duration
	rt0, rt1  rtSample
}

// drive runs every client's closed loop against fx for d. In a traced run
// every second op of each client is traced.
func drive(fx fixture, clients int, d time.Duration, traced bool) phase {
	p := phase{outcomes: make([][]outcome, clients), rt0: readRuntime()}
	cpu0 := cpuTime()
	fx.begin()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range p.outcomes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				p.outcomes[c] = append(p.outcomes[c], fx.op(c, traced && i%2 == 1))
			}
		}()
	}
	wg.Wait()
	p.wall, p.cpu, p.rt1 = time.Since(start), cpuTime()-cpu0, readRuntime()
	return p
}

func printMetrics(names []unitName, values map[string]float64) {
	for _, n := range names {
		fmt.Printf("  %-26s %16.4f %s\n", n.name, values[n.name], n.unit)
	}
}

// host records what the numbers were measured on, so that figures from
// different machines are not compared blindly.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Platform   string `json:"platform"`
}

func hostRecord() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates linearly between the order statistics of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSample is the runtime/metrics state the per-layer go.* metrics diff.
type rtSample struct {
	sched                   *metrics.Float64Histogram
	gcCPU, totalCPU, allocs float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return rtSample{
		sched:    s[0].Value.Float64Histogram(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		allocs:   float64(s[3].Value.Uint64()),
	}
}

// schedWaitP95 is the p95 of the time goroutines waited runnable between
// two samples, read as the upper edge of its histogram bucket.
func schedWaitP95(a, b rtSample) float64 {
	var total uint64
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && float64(cum) >= 0.95*float64(total) {
			edge := b.sched.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.sched.Buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}
