// Package faults implements the failure-injection layer behind the paper's
// stated future work: "we plan also to deal with fault detection, e.g.,
// block failures, and sensor failures" (§VI). It wraps BlockCodes so that
// the Env they observe misbehaves in controlled, seeded ways:
//
//   - FlakySensors: each Sense reading flips with a given probability,
//     modelling dirty or failing side sensors. The algorithm's layered
//     defences (physics-level validation of every motion, move-failure
//     suppression, escape tiers, re-elections) absorb sensor noise: a
//     misplanned motion is rejected by the electro-permanent latching
//     (the lattice), the block suppresses itself and the Root elects
//     someone else.
//   - DeadBlocks: selected blocks never start and never answer, modelling
//     crashed processing units. Dijkstra-Scholten elections wedge without
//     an answer from every neighbour — the experiment documents that the
//     published protocol does NOT tolerate crash faults, which is exactly
//     why the authors list detection as future work.
package faults

import (
	"errors"
	"math/rand"
	"sync"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// FlakySensors wraps a CodeFactory so every block's Sense readings flip
// with probability p, deterministically derived from seed, block id and a
// per-read counter.
func FlakySensors(inner exec.CodeFactory, p float64, seed int64) exec.CodeFactory {
	return func(id lattice.BlockID) exec.BlockCode {
		return &flakyCode{
			inner: inner(id),
			p:     p,
			rng:   rand.New(rand.NewSource(seed ^ int64(id)*0x5bd1e995)),
		}
	}
}

type flakyCode struct {
	inner exec.BlockCode
	p     float64
	rng   *rand.Rand
	tally *Tally
}

func (f *flakyCode) env(e exec.Env) exec.Env { return &flakyEnv{Env: e, f: f} }

// OnStart implements exec.BlockCode.
func (f *flakyCode) OnStart(e exec.Env) { f.inner.OnStart(f.env(e)) }

// OnMessage implements exec.BlockCode.
func (f *flakyCode) OnMessage(e exec.Env, from lattice.BlockID, m msg.Message) {
	f.inner.OnMessage(f.env(e), from, m)
}

// OnMoved implements exec.BlockCode.
func (f *flakyCode) OnMoved(e exec.Env, from, to geom.Vec) {
	f.inner.OnMoved(f.env(e), from, to)
}

// OnNeighborhoodChanged implements exec.BlockCode.
func (f *flakyCode) OnNeighborhoodChanged(e exec.Env) {
	f.inner.OnNeighborhoodChanged(f.env(e))
}

// flakyEnv intercepts Sense and SenseWindow and flips readings with
// probability p. The block's own cell and its four lateral contacts stay
// truthful: contact sensors are redundant with the communication ports, so
// their failure modes are separate (DeadBlocks covers losing a neighbour
// entirely).
type flakyEnv struct {
	exec.Env
	f *flakyCode
}

// Sense implements exec.Env with injected noise.
func (e *flakyEnv) Sense(v geom.Vec) bool {
	truth := e.Env.Sense(v)
	if t := e.f.tally; t != nil {
		t.mu.Lock()
		t.sensReads++
		t.mu.Unlock()
	}
	if v.Manhattan(e.Env.Position()) <= 1 {
		return truth
	}
	if e.f.rng.Float64() < e.f.p {
		if t := e.f.tally; t != nil {
			t.mu.Lock()
			t.flips++
			t.mu.Unlock()
		}
		return !truth
	}
	return truth
}

// SenseWindow implements exec.Env through Sense, so the noise is drawn per
// cell in rules.WindowAround's order, exactly as a cell-by-cell reader of
// the same window draws it.
func (e *flakyEnv) SenseWindow(anchor geom.Vec, radius int) uint64 {
	return rules.WindowAround(anchor, radius, e.Sense)
}

// DeadBlocks wraps a CodeFactory so the listed blocks are crash-faulty:
// they never react to anything (processing unit dead; the block remains on
// the surface as inert matter).
func DeadBlocks(inner exec.CodeFactory, dead ...lattice.BlockID) exec.CodeFactory {
	set := make(map[lattice.BlockID]bool, len(dead))
	for _, id := range dead {
		set[id] = true
	}
	return func(id lattice.BlockID) exec.BlockCode {
		if set[id] {
			return silentCode{}
		}
		return inner(id)
	}
}

type silentCode struct{}

func (silentCode) OnStart(exec.Env)                                 {}
func (silentCode) OnMessage(exec.Env, lattice.BlockID, msg.Message) {}
func (silentCode) OnMoved(exec.Env, geom.Vec, geom.Vec)             {}
func (silentCode) OnNeighborhoodChanged(exec.Env)                   {}

// ErrActuatorDead is what a broken actuator reports for every motion
// attempt.
var ErrActuatorDead = errors.New("faults: actuator dead, motion refused")

// DeadActuators wraps a CodeFactory so the listed blocks' motion actuators
// are broken: the blocks sense, communicate and win elections normally, but
// every Move attempt fails without touching the surface — the
// electro-permanent latching never engages. This is the "killed mid-batch"
// fault of the parallel-moves studies: an elected block that cannot execute
// its hop reports a failed MoveDone to the Root and self-suppresses, and
// the batch round's accounting must absorb the loss without stalling or
// leaving a half-applied motion behind (Surface.Apply's undo-log
// atomicity).
func DeadActuators(inner exec.CodeFactory, dead ...lattice.BlockID) exec.CodeFactory {
	set := make(map[lattice.BlockID]bool, len(dead))
	for _, id := range dead {
		set[id] = true
	}
	return func(id lattice.BlockID) exec.BlockCode {
		code := inner(id)
		if set[id] {
			return &deadActuatorCode{inner: code}
		}
		return code
	}
}

// deadActuatorCode delegates every hook, wrapping the Env so Move fails.
type deadActuatorCode struct {
	inner exec.BlockCode
}

func (d *deadActuatorCode) env(e exec.Env) exec.Env { return &deadActuatorEnv{Env: e} }

// OnStart implements exec.BlockCode.
func (d *deadActuatorCode) OnStart(e exec.Env) { d.inner.OnStart(d.env(e)) }

// OnMessage implements exec.BlockCode.
func (d *deadActuatorCode) OnMessage(e exec.Env, from lattice.BlockID, m msg.Message) {
	d.inner.OnMessage(d.env(e), from, m)
}

// OnMoved implements exec.BlockCode.
func (d *deadActuatorCode) OnMoved(e exec.Env, from, to geom.Vec) {
	d.inner.OnMoved(d.env(e), from, to)
}

// OnNeighborhoodChanged implements exec.BlockCode.
func (d *deadActuatorCode) OnNeighborhoodChanged(e exec.Env) {
	d.inner.OnNeighborhoodChanged(d.env(e))
}

// deadActuatorEnv refuses every motion.
type deadActuatorEnv struct {
	exec.Env
}

// Move implements exec.Env: the actuator never engages.
func (e *deadActuatorEnv) Move(app rules.Application) error { return ErrActuatorDead }

// Tally counts fault-layer observations across a run; safe for concurrent
// use (the goroutine engine shares it).
type Tally struct {
	mu        sync.Mutex
	flips     int
	sensReads int
}

// CountingFlakySensors is FlakySensors with flip accounting into t.
func CountingFlakySensors(inner exec.CodeFactory, p float64, seed int64, t *Tally) exec.CodeFactory {
	base := FlakySensors(inner, p, seed)
	return func(id lattice.BlockID) exec.BlockCode {
		fc := base(id).(*flakyCode)
		fc.tally = t
		return fc
	}
}

// Flips returns the number of flipped readings observed.
func (t *Tally) Flips() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flips
}

// Reads returns the number of Sense calls observed.
func (t *Tally) Reads() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sensReads
}

var (
	_ exec.BlockCode = (*flakyCode)(nil)
	_ exec.BlockCode = silentCode{}
	_ exec.BlockCode = (*deadActuatorCode)(nil)
	_ exec.Env       = (*flakyEnv)(nil)
	_ exec.Env       = (*deadActuatorEnv)(nil)
)
