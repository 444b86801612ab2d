package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// engineSpec is one engine input: a registry scenario and the election
// batch width K, with the counts every run of it must report.
type engineSpec struct {
	scenario string
	params   scenario.Params
	k        int
	rounds   int // 0: any
	hops     int
}

var (
	// slope-30 has 465 blocks. Smaller slopes at k=16 livelock (NOTES.md);
	// every seed checked at top=30 completes in 48 rounds and 333 hops.
	slope30 = engineSpec{scenario: "slope", params: scenario.Params{"top": 30}, k: 16, rounds: 48, hops: 333}
	fig10   = engineSpec{scenario: "fig10", hops: 109}
)

// warmSeed is the engine seed of the set-up run.
const warmSeed = 1

// drawSeed draws an engine seed from the workload's generator.
func drawSeed(r *rand.Rand) int64 { return r.Int63n(1<<40) + 1 }

// runEngine builds the scenario and runs it through a fresh core.Engine
// with the given seed, and reports how long scenario.Build and Engine.Run
// took. With l set, the run goes through the tracing wrappers and its
// boundary times land in l.
func runEngine(lib *rules.Library, sp engineSpec, seed int64, l *engineLayers) (res core.Result, build, run time.Duration, err error) {
	var root uint64
	if l != nil {
		root, l.run = l.rec.id(), l.rec.id()
	}
	start := time.Now()
	scen, err := scenario.Build(sp.scenario, sp.params)
	if err != nil {
		return core.Result{}, 0, 0, err
	}
	built := time.Now()
	cfg := scen.Config()
	cfg.ParallelMoves = sp.k
	opts := []core.Option{core.WithSeed(seed)}
	if l != nil {
		opts = append(opts, l.options()...)
	}
	res, err = core.NewEngine(lib, opts...).Run(context.Background(), scen.Surface, cfg)
	end := time.Now()
	if l != nil {
		l.BuildNS, l.RunNS, l.Result = int64(built.Sub(start)), int64(end.Sub(built)), res
		l.rec.span("scenario.build", l.rec.id(), root, l.Req, start, built)
		l.rec.span("core.run", l.run, root, l.Req, built, end)
		l.rec.span("engine.op", root, 0, l.Req, start, end)
		l.rec.addLayers(l)
	}
	return res, built.Sub(start), end.Sub(built), err
}

// check verifies one run's outcome against the spec.
func (sp engineSpec) check(res core.Result, err error) error {
	switch {
	case err != nil:
		return err
	case !res.Success || !res.PathBuilt:
		return fmt.Errorf("%s: success=%t path_built=%t", sp.scenario, res.Success, res.PathBuilt)
	case sp.rounds != 0 && res.Rounds != sp.rounds:
		return fmt.Errorf("%s: %d rounds, want %d", sp.scenario, res.Rounds, sp.rounds)
	case res.Hops != sp.hops:
		return fmt.Errorf("%s: %d hops, want %d", sp.scenario, res.Hops, sp.hops)
	}
	return nil
}

// sameCounts reports whether two runs of one seed did the same engine work.
func sameCounts(a, b core.Result) error {
	if a.Rounds != b.Rounds || a.Hops != b.Hops || a.MessagesSent != b.MessagesSent || a.Events != b.Events {
		return fmt.Errorf("traced run differs: rounds %d/%d hops %d/%d msgs %d/%d events %d/%d",
			a.Rounds, b.Rounds, a.Hops, b.Hops, a.MessagesSent, b.MessagesSent, a.Events, b.Events)
	}
	return nil
}

// engineFixture is engine_slope_k16: one client calls Engine.Run back to
// back on slope-30 with 16 parallel moves.
type engineFixture struct {
	lib   *rules.Library
	rec   *recorder
	seeds *rand.Rand

	// A traced op repeats the seed of the untraced op before it, so the two
	// runs' counts can be compared.
	seed int64
	last core.Result
}

func newEngineFixture(seed int64, rec *recorder) (fixture, error) {
	f := &engineFixture{lib: rules.StandardLibrary(), rec: rec, seeds: rand.New(rand.NewSource(seed))}
	res, _, _, err := runEngine(f.lib, slope30, warmSeed, nil)
	if err := slope30.check(res, err); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func (f *engineFixture) op(_ int, traced bool) outcome {
	if !traced {
		f.seed = drawSeed(f.seeds)
		res, build, run, err := runEngine(f.lib, slope30, f.seed, nil)
		f.last = res
		return outcome{lat: build + run, err: slope30.check(res, err)}
	}
	l := &engineLayers{rec: f.rec, Req: f.rec.id()}
	res, build, run, err := runEngine(f.lib, slope30, f.seed, l)
	err = slope30.check(res, err)
	if err == nil {
		err = sameCounts(f.last, res)
	}
	return outcome{lat: build + run, traced: true, err: err}
}

func (f *engineFixture) begin() {}

func (f *engineFixture) finish(traced bool, ops int) (map[string]float64, error) {
	if !traced {
		return nil, nil
	}
	return engineLayerMetrics(f.rec.layers), nil
}

func (f *engineFixture) close() {}

// engineLayerMetrics averages the traced runs' boundary times and counts
// per run.
func engineLayerMetrics(ls []*engineLayers) map[string]float64 {
	m := map[string]float64{}
	if len(ls) == 0 {
		return m
	}
	var moves, movesOK uint64
	for _, l := range ls {
		r := l.Result
		add := map[string]float64{
			"scenario.build_ms":      ms(l.BuildNS),
			"core.session_ms":        ms(l.RunNS - l.BootNS - l.DriveNS),
			"sim.boot_ms":            ms(l.BootNS),
			"sim.self_ms":            ms(l.DriveNS - l.HookNS),
			"core.blockcode_self_ms": ms(l.HookNS - l.SendNS - l.MoveNS - l.PlanNS),
			"msg.send_ms":            ms(l.SendNS),
			"lattice.move_ms":        ms(l.MoveNS),
			"lattice.plan_ms":        ms(l.PlanNS),
			"core.rounds":            float64(r.Rounds),
			"lattice.hops":           float64(r.Hops),
			"lattice.move_calls":     float64(l.Moves),
			"msg.sent":               float64(r.MessagesSent),
			"sim.events":             float64(r.Events),
			"core.hook_calls":        float64(l.Hooks),
			"core.sense_calls":       float64(l.Senses),
			"core.cands_dropped":     float64(r.Counters.CandidatesDropped),
		}
		for k, v := range add {
			m[k] += v / float64(len(ls))
		}
		moves += l.Moves
		movesOK += l.MovesOK
	}
	m["lattice.move_accept_ratio"] = ratio(float64(movesOK), float64(moves))
	return m
}
