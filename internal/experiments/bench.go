package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/matrix"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// BenchResult is one measured kernel in the machine-readable bench record.
type BenchResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Ops     int     `json:"ops"`
	// Metric carries a kernel-specific headline value (e.g. block moves of
	// the Fig. 10 run); zero when the kernel has none.
	Metric     float64 `json:"metric,omitempty"`
	MetricName string  `json:"metric_name,omitempty"`
	// Ungated marks an end-to-end wall-clock kernel: benchdiff reports its
	// ns/op without gating it, because such a sample is too noisy for a
	// percentage threshold on shared runners. Its Metric is still gated.
	Ungated bool `json:"ungated,omitempty"`
	// HigherIsBetter marks a Metric that regresses by shrinking
	// (throughput, moves per round, completion percentage); any other
	// Metric regresses by growing.
	HigherIsBetter bool `json:"higher_is_better,omitempty"`
}

// BenchRecord is the document emitted by `sbbench -json`: a timestamped,
// machine-readable snapshot of the hot-path kernels, so the performance
// trajectory of the repository can be tracked across PRs. The host fields
// say what the kernels ran on, so records from different machines are not
// compared blindly.
type BenchRecord struct {
	Schema     string        `json:"schema"`
	Timestamp  string        `json:"timestamp"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"numcpu"`
	CPU        string        `json:"cpu"`
	Results    []BenchResult `json:"results"`
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown" where
// that file does not exist or names no model.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo") // unreadable reads as no model line
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeKernel runs fn in batches until the total run time reaches ~50ms and
// returns the per-op cost. It is a self-calibrating micro-timer: coarse next
// to testing.B, but dependency-free and stable enough for trend tracking.
func timeKernel(name string, fn func()) BenchResult {
	const target = 50 * time.Millisecond
	batch := 1
	var elapsed time.Duration
	ops := 0
	for elapsed < target {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		elapsed += time.Since(start)
		ops += batch
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return BenchResult{
		Name:    name,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(ops),
		Ops:     ops,
	}
}

// BenchOpts tunes RunBenchJSONWith.
type BenchOpts struct {
	// Scale adds the 5e5- and 8e6-module flatness kernels to the record.
	// They exist to show the sharded per-event cost staying constant as the
	// surface grows 16x; their fixtures take hundreds of MB and seconds to
	// build, so they stay opt-in (sbbench -scale).
	Scale bool
}

// RunBenchJSON measures the validation hot path and the headline end-to-end
// run, and returns the record serialised as indented JSON.
func RunBenchJSON() ([]byte, error) { return RunBenchJSONWith(BenchOpts{}) }

// RunBenchJSONWith is RunBenchJSON with options.
func RunBenchJSONWith(opts BenchOpts) ([]byte, error) {
	mm := rules.EastSliding().MM
	mp := matrix.MustPresence([][]int{{0, 0, 0}, {1, 1, 0}, {1, 1, 1}})

	scs, err := scenario.TowerSweep([]int{16})
	if err != nil {
		return nil, err
	}
	surf := scs[0].Surface
	lib := rules.StandardLibrary()
	pos := geom.V(2, 7)
	apps := lib.ApplicationsOn(pos, surf)
	if len(apps) == 0 {
		return nil, fmt.Errorf("bench: lane block has no applications")
	}
	app := apps[0]
	laneID, ok := surf.BlockAt(pos)
	if !ok {
		return nil, fmt.Errorf("bench: no block on the lane cell %v", pos)
	}

	rec := BenchRecord{
		Schema:     "sbbench/1",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
	rec.Results = append(rec.Results,
		timeKernel("table2_overlap", func() {
			if !matrix.Overlap(mm, mp) {
				panic("east sliding must validate")
			}
		}),
		timeKernel("applications_for_predicate", func() {
			if len(lib.ApplicationsFor(pos, surf.Occupied)) == 0 {
				panic("lane block must have applications")
			}
		}),
		timeKernel("applications_for_bitboard", func() {
			if len(lib.ApplicationsOn(pos, surf)) == 0 {
				panic("lane block must have applications")
			}
		}),
		timeKernel("surface_validate", func() {
			if err := surf.Validate(app, lattice.Constraints{}); err != nil {
				panic(err)
			}
		}),
		timeKernel("validate_connectivity", func() {
			// The Remark 1 guard on the incremental articulation cache: the
			// verdict the planner pays for every candidate motion.
			if err := surf.Validate(app, lattice.Constraints{RequireConnectivity: true}); err != nil {
				panic(err)
			}
		}),
		timeKernel("validate_connectivity_clone_dfs", func() {
			// The seed-era reference for the same verdict: deep-copy the
			// surface, apply the candidate, rerun the DFS oracle. Kept in
			// the record so the incremental speedup stays visible across PRs.
			after := surf.Clone()
			if _, err := after.Apply(app, lattice.Constraints{}); err != nil {
				panic(err)
			}
			if !after.Connected() {
				panic("bench: tower scenario must stay connected")
			}
		}),
		timeKernel("applications_for_connectivity", func() {
			// Constrained enumeration (the elected block's decision
			// procedure under the Remark 1 guard); target within ~2x of
			// applications_for_bitboard.
			apps, err := surf.ApplicationsFor(laneID, lib, lattice.Constraints{RequireConnectivity: true})
			if err != nil || len(apps) == 0 {
				panic(fmt.Sprintf("bench: lane block constrained apps=%d err=%v", len(apps), err))
			}
		}),
	)

	// The articulation-mover connectivity verdict on the retained piece
	// labels (rung 1 of the ladder); BenchmarkArticulationMoveCheck in
	// internal/lattice sets it against the what-if overlay of rung 3.
	artic, err := articFixture()
	if err != nil {
		return nil, err
	}
	rec.Results = append(rec.Results,
		timeKernel("artic_fastpath", func() {
			if !artic.surf.ConnectedAfterDisplacement(artic.from, artic.to) {
				panic("bench: bridging displacement must stay connected")
			}
		}),
	)

	// One Fig. 10 end-to-end run: the paper's §V-D reconfiguration.
	s, err := scenario.Fig10()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := core.NewEngine(rules.StandardLibrary()).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		return nil, err
	}
	if !res.Success {
		return nil, fmt.Errorf("bench: fig10 run failed: %+v", res)
	}
	rec.Results = append(rec.Results, BenchResult{
		Name:       "fig10_reconfiguration",
		NsPerOp:    float64(time.Since(start).Nanoseconds()),
		Ops:        1,
		Metric:     float64(res.Hops),
		MetricName: "block_moves",
		Ungated:    true,
	})

	// Batch-election kernels (parallel-moves round pipeline). Two regimes on
	// wide surfaces, both deterministic on the DES (metric-gated by
	// benchdiff — rounds are exact counts, not timings):
	//
	//   - the 65-column slope-1 staircase, where both protocols complete:
	//     rounds-to-completion serial vs WithParallelMoves(4), plus the
	//     realised moves-per-round of the batch run;
	//   - the 71-column symmetric ridge, where the serial protocol livelocks
	//     between the two flanks and only the batch pipeline completes: its
	//     rounds-to-completion is the headline, and the serial run's metric
	//     records the budget it exhausted without completing.
	runWide := func(name string, build func() (*scenario.Scenario, error), k, cap int, mustComplete bool) (core.Result, time.Duration, error) {
		ws, err := build()
		if err != nil {
			return core.Result{}, 0, err
		}
		opts := []core.Option{core.WithSeed(1), core.WithRoundCap(cap)}
		if k > 1 {
			opts = append(opts, core.WithParallelMoves(k))
		}
		t0 := time.Now()
		res, err := core.NewEngine(rules.StandardLibrary(), opts...).
			Run(context.Background(), ws.Surface, ws.Config())
		if err != nil {
			return core.Result{}, 0, fmt.Errorf("bench: %s: %w", name, err)
		}
		if mustComplete && !res.Success {
			return core.Result{}, 0, fmt.Errorf("bench: %s did not complete: %v", name, res)
		}
		return res, time.Since(t0), nil
	}

	stairSerial, dt1, err := runWide("stair_serial", func() (*scenario.Scenario, error) { return scenario.SlopeStaircase(60, 66) }, 1, 3000, true)
	if err != nil {
		return nil, err
	}
	stairK4, dt2, err := runWide("stair_k4", func() (*scenario.Scenario, error) { return scenario.SlopeStaircase(60, 66) }, 4, 3000, true)
	if err != nil {
		return nil, err
	}
	ridgeK4, dt3, err := runWide("ridge_k4", scenario.WideRidge, 4, 2000, true)
	if err != nil {
		return nil, err
	}
	ridgeSerial, dt4, err := runWide("ridge_serial", scenario.WideRidge, 1, 4*ridgeK4.Rounds, false)
	if err != nil {
		return nil, err
	}
	stairK16, dt5, err := runWide("stair_k16", func() (*scenario.Scenario, error) { return scenario.SlopeStaircase(60, 66) }, 16, 3000, true)
	if err != nil {
		return nil, err
	}
	rec.Results = append(rec.Results,
		BenchResult{Name: "rounds_to_completion_serial", NsPerOp: float64(dt1.Nanoseconds()), Ops: 1,
			Metric: float64(stairSerial.Rounds), MetricName: "rounds", Ungated: true},
		BenchResult{Name: "rounds_to_completion_k4", NsPerOp: float64(dt2.Nanoseconds()), Ops: 1,
			Metric: float64(stairK4.Rounds), MetricName: "rounds", Ungated: true},
		BenchResult{Name: "moves_per_round_k4", NsPerOp: float64(dt2.Nanoseconds()), Ops: 1,
			Metric: stairK4.MovesPerRound(), MetricName: "moves_per_round", Ungated: true, HigherIsBetter: true},
		BenchResult{Name: "ridge_rounds_to_completion_k4", NsPerOp: float64(dt3.Nanoseconds()), Ops: 1,
			Metric: float64(ridgeK4.Rounds), MetricName: "rounds", Ungated: true},
		BenchResult{Name: "ridge_serial_rounds_budget", NsPerOp: float64(dt4.Nanoseconds()), Ops: 1,
			Metric: float64(ridgeSerial.Rounds), MetricName: "rounds_budget_exhausted", Ungated: true},
		BenchResult{Name: "rounds_to_completion_k16", NsPerOp: float64(dt5.Nanoseconds()), Ops: 1,
			Metric: float64(stairK16.Rounds), MetricName: "rounds", Ungated: true},
		BenchResult{Name: "moves_per_round_k16", NsPerOp: float64(dt5.Nanoseconds()), Ops: 1,
			Metric: stairK16.MovesPerRound(), MetricName: "moves_per_round", Ungated: true, HigherIsBetter: true},
	)
	if stairK4.Rounds >= stairSerial.Rounds {
		return nil, fmt.Errorf("bench: batch rounds %d did not improve on serial %d", stairK4.Rounds, stairSerial.Rounds)
	}
	// The wave-admission headline: conveyor stacking at k=16 must clear 3x
	// the pre-wave 2.25 admitted-moves-per-round ceiling of the
	// footprint-disjoint k=4 ladder.
	if mpr := stairK16.MovesPerRound(); mpr < 6.75 {
		return nil, fmt.Errorf("bench: k=16 wave admission reached %.2f moves/round, want >= 6.75", mpr)
	}
	if ridgeSerial.Success && ridgeSerial.Rounds < 2*ridgeK4.Rounds {
		return nil, fmt.Errorf("bench: ridge serial completed in %d rounds, batch %d — the 2x reduction no longer holds",
			ridgeSerial.Rounds, ridgeK4.Rounds)
	}

	// Sharded-surface kernels (§VI scale). The 2e6-module pair is the
	// headline: the cost one occupancy mutation re-imposes on the next
	// connectivity query, one full-width band vs column-band shards. The
	// sharded per-event kernels then ride the same fixed-height, fixed
	// band-width fixture family, so flatness across 5e5 -> 8e6 modules
	// (-scale) is visible as near-identical ns/op.
	rebuilds, err := shardRebuildKernels()
	if err != nil {
		return nil, err
	}
	rec.Results = append(rec.Results, rebuilds...)
	scales := []shardScale{{label: "2e6", cols: 3000}}
	if opts.Scale {
		scales = append([]shardScale{{label: "5e5", cols: 750}}, scales...)
		scales = append(scales, shardScale{label: "8e6", cols: 12000})
	}
	for _, sc := range scales {
		ks, err := shardEventKernels(sc)
		if err != nil {
			return nil, err
		}
		rec.Results = append(rec.Results, ks...)
	}

	// Horizontal-tier kernels: spec-affinity cache partitioning across a
	// gateway-fronted fleet, and zero-loss drain-aware rebalancing.
	gk, err := gateKernels()
	if err != nil {
		return nil, err
	}
	rec.Results = append(rec.Results, gk...)

	return json.MarshalIndent(rec, "", "  ")
}

// The shard fixture family: fill height and band width are fixed, so a
// surface grows only by adding columns (= bands) and the sharded per-event
// cost O(bandWidth x height) is the same constant at every scale. 750
// columns ~ 5e5 modules, 3000 ~ 2e6, 12000 ~ 8e6.
const (
	shardFixH  = 667 // fill rows of every shard fixture
	shardBandW = 150 // columns per band
)

// shardScale is one point of the flatness sweep.
type shardScale struct {
	label string
	cols  int
}

// shardWorkload is a built shard fixture: a filled slab with a rider block
// sliding on its flat top (mid-band, so the escalation ladder's interior
// fast path answers it) and a probe cell in a different band whose
// occupancy toggling dirties exactly one band per op.
type shardWorkload struct {
	surf       *lattice.Surface
	rider      lattice.BlockID
	east, west rules.Application
	probe      geom.Vec
}

// shardFixture fills cols x shardFixH modules and shards the surface into
// cols/shardBandW column bands (0 bands keeps the one full-width band).
func shardFixture(cols, bands int) (*shardWorkload, error) {
	surf, err := lattice.NewSurface(cols, shardFixH+6)
	if err != nil {
		return nil, err
	}
	if _, err := surf.FillRect(geom.RectSpanning(geom.V(0, 0), geom.V(cols-1, shardFixH-1))); err != nil {
		return nil, err
	}
	if bands > 0 {
		if err := surf.EnableSharding(bands); err != nil {
			return nil, err
		}
	}
	lib := rules.StandardLibrary()
	// Rider mid-band on the flat top; probe mid-band 0, far from the rider.
	bw := shardBandW
	if bands <= 0 {
		bw = cols
	}
	pos := geom.V((cols/bw/2)*bw+bw/2, shardFixH)
	w := &shardWorkload{probe: geom.V(bw/4, shardFixH)}
	if w.rider, err = surf.Place(pos); err != nil {
		return nil, err
	}
	surf.WarmConnectivity()
	if w.east, err = appMoving(lib, surf, pos, geom.V(pos.X+1, pos.Y)); err != nil {
		return nil, err
	}
	// Derive the westward return from the post-east position.
	if _, err := surf.Apply(w.east, lattice.Constraints{}); err != nil {
		return nil, err
	}
	if w.west, err = appMoving(lib, surf, geom.V(pos.X+1, pos.Y), pos); err != nil {
		return nil, err
	}
	if _, err := surf.Apply(w.west, lattice.Constraints{}); err != nil {
		return nil, err
	}
	w.surf = surf
	return w, nil
}

// appMoving finds the single-mover application sliding the block on from to
// to.
func appMoving(lib *rules.Library, surf *lattice.Surface, from, to geom.Vec) (rules.Application, error) {
	for _, a := range lib.ApplicationsOn(from, surf) {
		if mv, ok := a.MoveOf(from); ok && mv.To == to && len(a.Movers()) == 1 {
			return a, nil
		}
	}
	return rules.Application{}, fmt.Errorf("bench: no single-mover application %v -> %v", from, to)
}

// shardRebuildKernels is the headline pair at 2e6 modules: the cost of the
// first connectivity query after an occupancy mutation, paying a
// full-surface Tarjan rebuild on an unsharded (one-band) surface
// (mono_rebuild_2e6) vs one narrow band's rebuild plus the contraction
// recompute (shard_rebuild_2e6). The target regime is the band fraction
// (20 bands -> ~20x).
func shardRebuildKernels() ([]BenchResult, error) {
	const cols = 3000 // ~2e6 modules
	kernel := func(name string, bands int) (BenchResult, error) {
		fx, err := shardFixture(cols, bands)
		if err != nil {
			return BenchResult{}, err
		}
		res := timeKernel(name, func() {
			// Toggle the probe: the Place dirties its band (the whole
			// surface when unsharded), and the warm pays the rebuild.
			pid, err := fx.surf.Place(fx.probe)
			if err != nil {
				panic(err)
			}
			fx.surf.WarmConnectivity()
			if err := fx.surf.Remove(pid); err != nil {
				panic(err)
			}
		})
		res.Metric = float64(fx.surf.NumBlocks())
		res.MetricName = "modules"
		return res, nil
	}
	mono, err := kernel("mono_rebuild_2e6", 0)
	if err != nil {
		return nil, err
	}
	shard, err := kernel("shard_rebuild_2e6", cols/shardBandW)
	if err != nil {
		return nil, err
	}
	return []BenchResult{mono, shard}, nil
}

// shardEventKernels measures the sharded per-event costs at one scale: the
// constrained connectivity verdict right after a mutation dirtied a band
// (shard_validate_*), and the full single-move Apply round trip under the
// Remark 1 guard (shard_apply_*, two applies per op). With height and band
// width fixed, both must stay flat across the 5e5 -> 8e6 sweep.
func shardEventKernels(sc shardScale) ([]BenchResult, error) {
	fx, err := shardFixture(sc.cols, sc.cols/shardBandW)
	if err != nil {
		return nil, err
	}
	cons := lattice.Constraints{RequireConnectivity: true}
	validate := timeKernel("shard_validate_"+sc.label, func() {
		pid, err := fx.surf.Place(fx.probe)
		if err != nil {
			panic(err)
		}
		if err := fx.surf.Validate(fx.east, cons); err != nil {
			panic(err)
		}
		if err := fx.surf.Remove(pid); err != nil {
			panic(err)
		}
	})
	apply := timeKernel("shard_apply_"+sc.label, func() {
		if _, err := fx.surf.Apply(fx.east, cons); err != nil {
			panic(err)
		}
		if _, err := fx.surf.Apply(fx.west, cons); err != nil {
			panic(err)
		}
	})
	validate.Metric = float64(fx.surf.NumBlocks())
	validate.MetricName = "modules"
	apply.Metric = float64(fx.surf.NumBlocks())
	apply.MetricName = "modules"
	return []BenchResult{validate, apply}, nil
}

// articFixture builds the cut-vertex mover workload of the artic_fastpath
// kernel: a long 1-high chain (every interior cell an articulation point)
// with a bridging destination above, so the verdict exercises the retained
// piece labels rather than the non-articulation fast path.
type articWorkload struct {
	surf     *lattice.Surface
	from, to geom.Vec
}

func articFixture() (*articWorkload, error) {
	surf, err := lattice.NewSurface(64, 4)
	if err != nil {
		return nil, err
	}
	for x := 0; x < 64; x++ {
		if _, err := surf.Place(geom.V(x, 0)); err != nil {
			return nil, err
		}
	}
	for _, v := range []geom.Vec{geom.V(30, 1), geom.V(32, 1)} {
		if _, err := surf.Place(v); err != nil {
			return nil, err
		}
	}
	surf.WarmConnectivity()
	if !surf.IsArticulation(geom.V(31, 0)) {
		return nil, fmt.Errorf("bench: artic fixture mover is not an articulation point")
	}
	return &articWorkload{surf: surf, from: geom.V(31, 0), to: geom.V(31, 1)}, nil
}
