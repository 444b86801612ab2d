package faults

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestFlakySensorsToleratedAtLowRates: with a few percent of long-range
// sensor readings flipped, the algorithm still completes the Fig. 10
// reconfiguration. The defence in depth is structural: misplanned motions
// are rejected by the physical layer, the block self-suppresses, and the
// Root elects another block; missed opportunities cost extra rounds, not
// correctness.
func TestFlakySensorsToleratedAtLowRates(t *testing.T) {
	for _, p := range []float64{0.01, 0.03} {
		ok := 0
		const trials = 5
		for seed := int64(1); seed <= trials; seed++ {
			s, err := scenario.Fig10()
			if err != nil {
				t.Fatal(err)
			}
			tally := &Tally{}
			eng := core.NewEngine(rules.StandardLibrary(),
				core.WithSeed(seed),
				core.WithFaultWrap(func(inner exec.CodeFactory) exec.CodeFactory {
					return CountingFlakySensors(inner, p, seed, tally)
				}))
			res, err := eng.Run(context.Background(), s.Surface, s.Config())
			if err != nil {
				continue
			}
			if tally.Flips() == 0 {
				t.Errorf("p=%v seed=%d: no sensor faults were injected (%d reads)",
					p, seed, tally.Reads())
			}
			if res.Success && res.PathBuilt {
				ok++
			}
		}
		if ok < trials-1 {
			t.Errorf("p=%v: only %d/%d flaky runs completed", p, ok, trials)
		}
	}
}

// TestFlakyWindowMatchesCellReads: a flaky block that reads a rule window
// in one SenseWindow call sees exactly what a twin with the same seed sees
// reading the same cells one Sense at a time, and both tallies count the
// same reads and flips, so the fault study's numbers do not depend on how
// the planner reads its windows.
func TestFlakyWindowMatchesCellReads(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	world, err := exec.NewWorld(s.Surface, rules.StandardLibrary(), s.Input, s.Output, lattice.Constraints{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var host exec.Env
	eng, err := sim.NewEngine(world, func(id lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{Start: func(e exec.Env) {
			if e.Position() == geom.V(2, 2) {
				host = e
			}
		}}
	}, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if host == nil {
		t.Fatal("no block at (2,2)")
	}
	var windowTally, cellTally Tally
	flaky := func(tally *Tally) *flakyEnv {
		code := CountingFlakySensors(func(lattice.BlockID) exec.BlockCode { return silentCode{} }, 0.3, 7, tally)(host.ID())
		return &flakyEnv{Env: host, f: code.(*flakyCode)}
	}
	byWindow, byCell := flaky(&windowTally), flaky(&cellTally)
	p, r := host.Position(), host.SensingRadius()
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			anchor := p.Add(geom.V(dx, dy))
			for radius := 0; anchor.Chebyshev(p)+radius <= r; radius++ {
				got := byWindow.SenseWindow(anchor, radius)
				want := rules.WindowAround(anchor, radius, byCell.Sense)
				if got != want {
					t.Fatalf("SenseWindow(%v, %d) = %#x, cell by cell %#x", anchor, radius, got, want)
				}
			}
		}
	}
	if windowTally.Flips() == 0 {
		t.Fatal("no reading was flipped")
	}
	if windowTally.Reads() != cellTally.Reads() || windowTally.Flips() != cellTally.Flips() {
		t.Errorf("window reader tallied %d reads, %d flips; cell reader %d reads, %d flips",
			windowTally.Reads(), windowTally.Flips(), cellTally.Reads(), cellTally.Flips())
	}
}

// TestFlakySensorsCostRounds: sensor faults may cost extra elections
// compared to the clean run, never fewer productive outcomes.
func TestFlakySensorsCostRounds(t *testing.T) {
	clean, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).
		Run(context.Background(), clean.Surface, clean.Config())
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithSeed(1),
		core.WithFaultWrap(func(inner exec.CodeFactory) exec.CodeFactory {
			return FlakySensors(inner, 0.02, 7)
		}))
	res, err := eng.Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Skipf("this seed's fault pattern wedged the run: %v", err)
	}
	if res.Success && res.Rounds < cleanRes.Rounds/2 {
		t.Errorf("faulty run used suspiciously few rounds: %d vs clean %d",
			res.Rounds, cleanRes.Rounds)
	}
}

// TestDeadBlockWedgesElection documents that the published protocol does
// not tolerate crash faults: a dead (silent) block never acknowledges its
// activation, the Dijkstra-Scholten deficit never clears, and the run ends
// without a termination report — precisely the gap the paper's future-work
// section ("fault detection") is about.
func TestDeadBlockWedgesElection(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// Kill block #11 (top of the lane; not the Root). The Monitor watches
	// the session's event stream: elections open but termination never
	// arrives.
	mon := &Monitor{}
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithSeed(1),
		core.WithObserver(mon),
		core.WithFaultWrap(func(inner exec.CodeFactory) exec.CodeFactory {
			return DeadBlocks(inner, 11)
		}))
	_, err = eng.Run(context.Background(), s.Surface, s.Config())
	if err == nil {
		t.Fatal("run with a crashed block should not report termination")
	}
	if mon.RoundsOpened == 0 {
		t.Error("observer saw no election open; the Root never started")
	}
	if mon.Terminated {
		t.Error("observer saw a Terminated event from a wedged run")
	}
}

// TestDeadBlocksFactorySelective: only the listed ids are silenced.
func TestDeadBlocksFactorySelective(t *testing.T) {
	calls := map[lattice.BlockID]bool{}
	inner := func(id lattice.BlockID) exec.BlockCode {
		calls[id] = true
		return exec.BlockCodeFuncs{}
	}
	f := DeadBlocks(inner, 3)
	_ = f(3)
	_ = f(5)
	if calls[3] {
		t.Error("dead block's inner code should not be constructed")
	}
	if !calls[5] {
		t.Error("healthy block's inner code missing")
	}
}

// runBatchStair runs the wide slope staircase at batch width 4 with the
// given fault wrap and returns the result plus the monitor.
func runBatchStair(t *testing.T, wrap func(exec.CodeFactory) exec.CodeFactory) (core.Result, *Monitor) {
	t.Helper()
	s, err := scenario.SlopeStaircase(20, 26)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{}
	opts := []core.Option{
		core.WithSeed(1),
		core.WithObserver(mon),
	}
	if wrap != nil {
		opts = append(opts, core.WithFaultWrap(wrap))
	}
	cfg := s.Config()
	cfg.ParallelMoves, cfg.MaxRounds = 4, 600
	res, err := core.NewEngine(rules.StandardLibrary(), opts...).
		Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatalf("staircase run: %v", err)
	}
	// The physical invariants a batch round must preserve under any fault:
	// block count unchanged (Apply and the veto pass are undo-log atomic)
	// and the ensemble connected.
	if got := s.Surface.NumBlocks(); got != res.Blocks {
		t.Fatalf("surface holds %d blocks, result says %d (partial Apply?)", got, res.Blocks)
	}
	if !s.Surface.Connected() {
		t.Fatal("surface disconnected after the run")
	}
	return res, mon
}

// TestDeadActuatorMidBatch kills a batch winner's actuator and asserts the
// parallel-moves round pipeline absorbs it: the victim's failed hop leaves
// the surface untouched (undo-log atomicity — block count, occupancy and
// connectivity all intact), the batch round completes instead of stalling
// on the missing hop, and the next elections re-ladder without the dead
// block (it self-suppresses after the failure). Like the paper's crash
// faults (DeadBlocks), a permanently dead actuator is NOT survivable to
// completion — the inert block keeps winning elections once its suppression
// decays and its cell blocks a lane — so the assertions are about round
// liveness and atomicity, not final success; fault *detection* remains the
// paper's future work.
func TestDeadActuatorMidBatch(t *testing.T) {
	// Clean reference run: find a batch round and pick a non-best winner,
	// so killing it leaves the round with other progress to make.
	clean, cleanMon := runBatchStair(t, nil)
	if !clean.Success {
		t.Fatalf("clean staircase run failed: %v", clean)
	}
	var victim lattice.BlockID
	for _, ws := range cleanMon.Winners {
		if len(ws) > 1 {
			victim = ws[1]
			break
		}
	}
	if victim == lattice.None {
		t.Fatal("clean run admitted no batch; nothing to kill")
	}

	res, mon := runBatchStair(t, func(inner exec.CodeFactory) exec.CodeFactory {
		return DeadActuators(inner, victim)
	})
	if res.Counters.MoveFailures == 0 {
		t.Error("no move failure recorded; the fault never fired")
	}
	// The victim must have been elected at least once (the fault fired
	// mid-batch), and after each of its failures the immediately following
	// elections must re-ladder without it: a block whose hop was refused
	// bids neutral while its suppression backoff lasts.
	elected := -1
	for i, ws := range mon.Winners {
		for _, id := range ws {
			if id == victim {
				elected = i
			}
		}
	}
	if elected < 0 {
		t.Fatalf("victim %d was never elected; the fault never fired", victim)
	}
	for i := elected + 1; i < len(mon.Winners) && i <= elected+2; i++ {
		for _, id := range mon.Winners[i] {
			if id == victim {
				t.Errorf("victim %d re-elected in round %d immediately after its failure; suppression backoff broken", victim, i)
			}
		}
	}
	// Round liveness: the batch round with the dead winner completed (the
	// Root collected the failed MoveDone and kept electing), instead of
	// stalling the pipeline on the hop that never came.
	if len(mon.Winners) <= elected+1 {
		t.Errorf("no election after the victim's failed round %d; batch round stalled", elected)
	}
	if !mon.Terminated {
		t.Error("run did not reach a termination report; the round pipeline wedged")
	}
	_ = res
}
