package runtime_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
	"repro/internal/runtime"
	"repro/internal/scenario"
)

// TestAsyncFig10 runs the Fig. 10 instance on the goroutine runtime: same
// BlockCode, real concurrency. The run must succeed and build the path.
func TestAsyncFig10(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatalf("async run: %v (%v)", err, res)
	}
	if !res.Success || !res.PathBuilt {
		t.Fatalf("async run failed: %v", res)
	}
	t.Logf("async: %v", res)
}

// TestAsyncLemmaFamily: a sample of the random instance family also solves
// on the goroutine runtime.
func TestAsyncLemmaFamily(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s, err := scenario.RandomStaircase(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(seed)).Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Success || !res.PathBuilt {
			t.Errorf("seed %d: %v", seed, res)
		}
	}
}

// TestAsyncTimeout: an unsolvable protocol state (a crashed Root never
// opens an election) hits the wall-clock timeout and reports an error
// instead of hanging.
func TestAsyncTimeout(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// A factory of inert blocks: nobody ever sends anything.
	factory := func(id lattice.BlockID) exec.BlockCode { return exec.BlockCodeFuncs{} }
	eng, err := runtime.NewEngine(s.Surface, rules.StandardLibrary(), factory, runtime.Config{
		Input:   s.Input,
		Output:  s.Output,
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err == nil {
		t.Fatal("inert system should time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestAsyncMessageCountsPlausible: the async engine's message accounting is
// self-consistent (delivered <= sent, no drops in a healthy run).
func TestAsyncMessageCountsPlausible(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(5)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped != 0 {
		t.Errorf("dropped %d in a healthy async run", res.MessagesDropped)
	}
	if res.MessagesSent == 0 {
		t.Error("no messages sent")
	}
}

// TestBurstDeliveredWithoutDrops: a burst of sends from one neighbour goes
// through the block goroutines' message path, and every message reaches
// OnMessage in send order; none is dropped.
func TestBurstDeliveredWithoutDrops(t *testing.T) {
	surf, err := lattice.NewSurface(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []geom.Vec{geom.V(1, 1), geom.V(2, 1)} {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	const burst = 8
	var eng *runtime.Engine
	var got []uint32 // written only by the receiver's goroutine
	factory := func(lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{
			Start: func(e exec.Env) {
				if e.Position() != geom.V(1, 1) {
					return
				}
				nb := e.Neighbors()[geom.East]
				for i := 0; i < burst; i++ {
					if err := e.Send(nb, msg.Message{Type: msg.TypeAck, Round: uint32(i)}); err != nil {
						t.Error(err)
					}
				}
			},
			Message: func(_ exec.Env, _ lattice.BlockID, m msg.Message) {
				got = append(got, m.Round)
				if len(got) == burst {
					eng.Finish(true, 0)
				}
			},
		}
	}
	eng, err = runtime.NewEngine(surf, rules.StandardLibrary(), factory, runtime.Config{
		Input:   geom.V(1, 1),
		Output:  geom.V(5, 5),
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.MessagesSent != burst || m.MessagesDelivered != burst || m.MessagesDropped != 0 {
		t.Errorf("sent %d, delivered %d, dropped %d; want %d, %d, 0",
			m.MessagesSent, m.MessagesDelivered, m.MessagesDropped, burst, burst)
	}
	for i, r := range got {
		if r != uint32(i) {
			t.Fatalf("delivery order %v, want send order", got)
		}
	}
}
