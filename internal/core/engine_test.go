package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// checkSurfaceIntegrity asserts the physical invariants a session must
// preserve on every exit path, including cancellation: the block count is
// unchanged (Apply is atomic — no half-executed motion ever leaves a block
// duplicated or dropped), the ensemble is connected (Remark 1), and the id
// and occupancy views agree cell by cell.
func checkSurfaceIntegrity(t *testing.T, surf *lattice.Surface, wantBlocks int) {
	t.Helper()
	if got := surf.NumBlocks(); got != wantBlocks {
		t.Errorf("surface holds %d blocks, want %d (partial Apply?)", got, wantBlocks)
	}
	if !surf.Connected() {
		t.Error("surface disconnected after the session")
	}
	if got := len(surf.Positions()); got != wantBlocks {
		t.Errorf("id view lists %d positions, want %d", got, wantBlocks)
	}
	for _, p := range surf.Positions() {
		if !surf.Occupied(p) {
			t.Errorf("id view has a block at %s but occupancy view disagrees", p)
		}
	}
}

// TestEngineSerialWidthIsDefault: Config.ParallelMoves = 1 is the same
// computation as the default (unset) width — identical results, messages
// and virtual time on identical seeds. The full differential against the
// recorded pre-refactor protocol lives in parallel_test.go.
func TestEngineSerialWidthIsDefault(t *testing.T) {
	s1, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).
		Run(context.Background(), s1.Surface, s1.Config())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s2.Config()
	cfg.ParallelMoves = 1
	eng := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1))
	res, err := eng.Run(context.Background(), s2.Surface, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hops != res.Hops || plain.Rounds != res.Rounds ||
		plain.MessagesSent != res.MessagesSent || plain.VirtualTime != res.VirtualTime ||
		plain.Events != res.Events {
		t.Errorf("k=1 diverged from the default serial protocol:\ndefault %+v\nk=1     %+v", plain, res)
	}
}

// TestEngineCancellationMidRun: cancelling the context mid-run stops the
// DES backend between events and leaves the surface valid — connected,
// fully rolled back, no partial Apply.
func TestEngineCancellationMidRun(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	blocks := s.Surface.NumBlocks()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	motions := 0
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithSeed(1),
		core.WithObserver(core.ObserverFunc(func(ev core.Event) {
			if ev.Kind == core.EventMotionApplied {
				motions++
				if motions == 3 {
					cancel() // mid-run: well before the ~100-motion solution
				}
			}
		})))
	res, err := eng.Run(ctx, s.Surface, s.Config())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Success {
		t.Error("cancelled run reports success")
	}
	if res.Hops == 0 {
		t.Error("cancellation landed before any motion; the probe cancelled too early")
	}
	checkSurfaceIntegrity(t, s.Surface, blocks)
}

// TestEngineCancellationBeforeStart: an already-cancelled context stops the
// session before any event runs; the surface is untouched.
func TestEngineCancellationBeforeStart(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	blocks := s.Surface.NumBlocks()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := core.NewEngine(rules.StandardLibrary()).Run(ctx, s.Surface, s.Config())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Hops != 0 {
		t.Errorf("pre-cancelled session executed %d hops", res.Hops)
	}
	checkSurfaceIntegrity(t, s.Surface, blocks)
}

// TestEngineAsyncCancellation: cancellation reaches the goroutine backend
// too; whether the run managed to finish first or was cut short, the
// surface is valid and the verdicts are consistent.
func TestEngineAsyncCancellation(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	blocks := s.Surface.NumBlocks()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithBackend(core.Async),
		core.WithSeed(1),
		core.WithObserver(core.ObserverFunc(func(ev core.Event) {
			if ev.Kind == core.EventMotionApplied {
				once.Do(cancel)
			}
		})))
	res, err := eng.Run(ctx, s.Surface, s.Config())
	switch {
	case err == nil:
		// The Root finished in the same instant the cancel landed; a valid
		// outcome of the race.
		if !res.Success {
			t.Error("nil error but unsuccessful result")
		}
	case errors.Is(err, context.Canceled):
		// The expected path.
	default:
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	checkSurfaceIntegrity(t, s.Surface, blocks)
}

// TestEngineBackendsAgreeAcrossSeeds is the differential test of the two
// backends behind the one session API: for the Fig. 10 instance, DES and
// goroutine runs agree on Success, PathBuilt and Hops across 5 seeds
// (election winners are timing-independent by construction).
func TestEngineBackendsAgreeAcrossSeeds(t *testing.T) {
	lib := rules.StandardLibrary()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			des, err := scenario.Fig10()
			if err != nil {
				t.Fatal(err)
			}
			desRes, err := core.NewEngine(lib, core.WithSeed(seed)).
				Run(context.Background(), des.Surface, des.Config())
			if err != nil {
				t.Fatalf("des: %v", err)
			}
			async, err := scenario.Fig10()
			if err != nil {
				t.Fatal(err)
			}
			asyncRes, err := core.NewEngine(lib, core.WithBackend(core.Async), core.WithSeed(seed)).
				Run(context.Background(), async.Surface, async.Config())
			if err != nil {
				t.Fatalf("async: %v", err)
			}
			if desRes.Success != asyncRes.Success ||
				desRes.PathBuilt != asyncRes.PathBuilt ||
				desRes.Hops != asyncRes.Hops {
				t.Errorf("backends disagree:\ndes   %v\nasync %v", desRes, asyncRes)
			}
			if !desRes.Success || !desRes.PathBuilt {
				t.Errorf("seed %d failed to solve Fig. 10: %v", seed, desRes)
			}
		})
	}
}

// TestEngineFillsBackendMetrics: neither backend silently zeroes the
// virtual-time/event metrics anymore.
func TestEngineFillsBackendMetrics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend core.BackendFactory
	}{
		{"des", core.DES},
		{"async", core.Async},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scenario.Fig10()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(tc.backend)).
				Run(context.Background(), s.Surface, s.Config())
			if err != nil {
				t.Fatal(err)
			}
			if res.VirtualTime == 0 {
				t.Error("VirtualTime is zero")
			}
			if res.Events == 0 {
				t.Error("Events is zero")
			}
		})
	}
}

// TestEngineObserverStream: the structured stream carries the run's
// milestones consistently with the Result.
func TestEngineObserverStream(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	var rounds, decided, motions, terminated, stats int
	var lastTerm core.Event
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithObserver(core.ObserverFunc(func(ev core.Event) {
			switch ev.Kind {
			case core.EventRoundStarted:
				rounds++
			case core.EventElectionDecided:
				decided++
			case core.EventMotionApplied:
				motions++
			case core.EventTerminated:
				terminated++
				lastTerm = ev
			case core.EventMessageStats:
				stats++
			}
			if ev.Instance != -1 {
				t.Errorf("single-run event stamped with instance %d, want -1", ev.Instance)
			}
		})))
	res, err := eng.Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if decided != res.Rounds {
		t.Errorf("observed %d decided elections, result says %d", decided, res.Rounds)
	}
	if rounds < decided {
		t.Errorf("observed %d round starts < %d decisions", rounds, decided)
	}
	if motions != res.Applications {
		t.Errorf("observed %d motions, result says %d applications", motions, res.Applications)
	}
	if terminated != 1 || !lastTerm.Success || lastTerm.Rounds != res.Rounds {
		t.Errorf("termination event %+v inconsistent with result %v", lastTerm, res)
	}
	if stats != 1 {
		t.Errorf("observed %d message-stats events, want 1", stats)
	}
}

// TestEngineRunBatch: a mixed batch fans out across the worker pool and
// comes back in input order with per-instance seeds honoured; the shared
// observer sees each instance's events contiguously and stamped.
func TestEngineRunBatch(t *testing.T) {
	const n = 8
	insts := make([]core.Instance, n)
	for i := range insts {
		s, err := scenario.Fig10()
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = core.Instance{
			Name:    fmt.Sprintf("fig10-seed-%d", i+1),
			Surface: s.Surface,
			Config:  s.Config(),
			Seed:    int64(i + 1),
		}
	}
	var mu sync.Mutex
	perInstance := map[int]int{}
	var streamOrder []int
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithWorkers(4),
		core.WithObserver(core.ObserverFunc(func(ev core.Event) {
			mu.Lock()
			perInstance[ev.Instance]++
			if len(streamOrder) == 0 || streamOrder[len(streamOrder)-1] != ev.Instance {
				streamOrder = append(streamOrder, ev.Instance)
			}
			mu.Unlock()
		})))
	brs, err := eng.RunBatch(context.Background(), insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != n {
		t.Fatalf("got %d results, want %d", len(brs), n)
	}
	for i, br := range brs {
		if br.Instance != i || br.Name != insts[i].Name {
			t.Errorf("result %d out of order: %+v", i, br)
		}
		if br.Err != nil {
			t.Errorf("%s: %v", br.Name, br.Err)
		}
		if !br.Result.Success || !br.Result.PathBuilt {
			t.Errorf("%s did not solve: %v", br.Name, br.Result)
		}
		if perInstance[i] == 0 {
			t.Errorf("no events observed for instance %d", i)
		}
	}
	// Same seed => same run, wherever the worker pool placed it.
	if brs[0].Result.Hops == 0 {
		t.Error("batch result carries no hops")
	}
	seen := map[int]bool{}
	for _, inst := range streamOrder {
		if seen[inst] {
			t.Errorf("instance %d's events interleaved with another instance", inst)
		}
		seen[inst] = true
	}
}

// TestEngineRunBatchDeterministicPlacement: the same instance+seed yields
// the same result no matter the worker count.
func TestEngineRunBatchDeterministicPlacement(t *testing.T) {
	run := func(workers int) []core.BatchResult {
		insts := make([]core.Instance, 4)
		for i := range insts {
			s, err := scenario.Fig10()
			if err != nil {
				t.Fatal(err)
			}
			insts[i] = core.Instance{Surface: s.Surface, Config: s.Config(), Seed: int64(i + 1)}
		}
		brs, err := core.NewEngine(rules.StandardLibrary(), core.WithWorkers(workers)).
			RunBatch(context.Background(), insts)
		if err != nil {
			t.Fatal(err)
		}
		return brs
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i].Result.Hops != parallel[i].Result.Hops ||
			serial[i].Result.Rounds != parallel[i].Result.Rounds {
			t.Errorf("instance %d: workers=1 %v vs workers=4 %v",
				i, serial[i].Result, parallel[i].Result)
		}
	}
}

// TestEngineRunBatchCancellation: cancelling a batch stops handing out
// instances; unstarted ones report the context error and started ones are
// left on valid surfaces.
func TestEngineRunBatchCancellation(t *testing.T) {
	const n = 6
	insts := make([]core.Instance, n)
	blocks := make([]int, n)
	for i := range insts {
		s, err := scenario.Fig10()
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = s.Surface.NumBlocks()
		insts[i] = core.Instance{Surface: s.Surface, Config: s.Config(), Seed: 1}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithWorkers(2),
		core.WithObserver(core.ObserverFunc(func(ev core.Event) {
			if ev.Kind == core.EventMotionApplied {
				once.Do(cancel)
			}
		})))
	brs, err := eng.RunBatch(ctx, insts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	cancelled := 0
	for i, br := range brs {
		if br.Err != nil {
			cancelled++
		}
		checkSurfaceIntegrity(t, insts[i].Surface, blocks[i])
	}
	if cancelled == 0 {
		t.Error("no instance reported the cancellation")
	}
}

// TestEngineWithRoundCap: Config.MaxRounds caps the elections, and a capped
// run still terminates cleanly.
func TestEngineWithRoundCap(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	cfg.MaxRounds = 3
	eng := core.NewEngine(rules.StandardLibrary())
	res, err := eng.Run(context.Background(), s.Surface, cfg)
	if err != nil {
		t.Fatalf("a capped run still terminates cleanly: %v", err)
	}
	if res.Success {
		t.Error("3 elections cannot solve Fig. 10")
	}
	if res.Rounds > 3 {
		t.Errorf("round cap ignored: %d rounds", res.Rounds)
	}
}

// TestEngineRunBatchRace exercises concurrent sessions over one engine
// value under the race detector (the CI -race job): shared engine, shared
// observer, separate surfaces.
func TestEngineRunBatchRace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	summary := &countingObserver{}
	insts := make([]core.Instance, 6)
	for i := range insts {
		s, err := scenario.Fig10()
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = core.Instance{Surface: s.Surface, Config: s.Config(), Seed: int64(i%3 + 1)}
	}
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithWorkers(3), core.WithObserver(summary))
	brs, err := eng.RunBatch(context.Background(), insts)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range brs {
		if br.Err != nil || !br.Result.Success {
			t.Errorf("%d: err=%v res=%v", br.Instance, br.Err, br.Result)
		}
	}
	if summary.terminations != len(insts) {
		t.Errorf("observer saw %d terminations, want %d", summary.terminations, len(insts))
	}
}

// TestEngineConcurrentRunsShareObserver: several simultaneous Run sessions
// on one engine deliver to a shared lock-free observer; the engine
// serialises delivery across sessions, so under -race this must stay
// clean.
func TestEngineConcurrentRunsShareObserver(t *testing.T) {
	summary := &countingObserver{}
	eng := core.NewEngine(rules.StandardLibrary(), core.WithObserver(summary))
	const sessions = 4
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := scenario.Fig10()
			if err != nil {
				t.Error(err)
				return
			}
			res, err := eng.Run(context.Background(), s.Surface, s.Config())
			if err != nil || !res.Success {
				t.Errorf("concurrent session: err=%v res=%v", err, res)
			}
		}()
	}
	wg.Wait()
	if summary.terminations != sessions {
		t.Errorf("observer saw %d terminations, want %d", summary.terminations, sessions)
	}
}

// countingObserver counts terminations without internal locking: the
// session contract says delivery is serialised even across a batch.
type countingObserver struct{ terminations int }

func (c *countingObserver) OnEvent(ev core.Event) {
	if ev.Kind == core.EventTerminated {
		c.terminations++
	}
}

// TestEngineAsyncTimeoutOption: WithTimeout bounds a wedged async run.
func TestEngineAsyncTimeoutOption(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// A 1ns timeout trips before the Root can finish.
	eng := core.NewEngine(rules.StandardLibrary(),
		core.WithBackend(core.Async), core.WithTimeout(time.Nanosecond))
	_, err = eng.Run(context.Background(), s.Surface, s.Config())
	if err == nil {
		t.Fatal("1ns timeout did not trip")
	}
	checkSurfaceIntegrity(t, s.Surface, 12)
}

// TestConfigWithRunDefaults: the shared MaxRounds derivation matches what
// the two legacy runners used to compute independently, and explicit values
// pass through.
func TestConfigWithRunDefaults(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	cfg.MaxRounds = 0
	got := cfg.WithRunDefaults(s.Surface)
	n := s.Surface.NumBlocks()
	d := cfg.Input.Manhattan(cfg.Output)
	if want := 64 + 8*n*(d+2); got.MaxRounds != want {
		t.Errorf("derived MaxRounds = %d, want %d", got.MaxRounds, want)
	}
	cfg.MaxRounds = 7
	if got := cfg.WithRunDefaults(s.Surface); got.MaxRounds != 7 {
		t.Errorf("explicit MaxRounds overridden to %d", got.MaxRounds)
	}
	if got.Counters == nil {
		t.Error("WithRunDefaults must fill Counters like WithDefaults")
	}
}
