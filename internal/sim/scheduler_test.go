package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30, func() { got = append(got, 3) })
	s.After(10, func() { got = append(got, 1) })
	s.After(20, func() { got = append(got, 2) })
	if n := s.Run(0); n != 3 {
		t.Fatalf("Run = %d events", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %d, want 30", s.Now())
	}
	if s.Processed() != 3 {
		t.Errorf("Processed = %d", s.Processed())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.After(5, func() { got = append(got, i) })
	}
	s.Run(0)
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-instant events not in scheduling order: %v", got[:10])
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var got []string
	s.After(10, func() {
		got = append(got, "a")
		s.After(5, func() { got = append(got, "c") })
		s.After(0, func() { got = append(got, "b") })
	})
	s.Run(0)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulerPastRejected(t *testing.T) {
	s := NewScheduler(1)
	s.After(10, func() {})
	s.Run(0)
	if err := s.At(5, func() {}); err == nil {
		t.Error("scheduling in the past must fail")
	}
	// Negative After clamps to now.
	fired := false
	s.After(-7, func() { fired = true })
	s.Run(0)
	if !fired {
		t.Error("clamped event did not fire")
	}
}

func TestSchedulerRunBudget(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 10; i++ {
		s.After(Time(i), func() {})
	}
	if n := s.Run(4); n != 4 {
		t.Errorf("bounded Run = %d, want 4", n)
	}
	if s.Pending() != 6 {
		t.Errorf("Pending = %d, want 6", s.Pending())
	}
	if n := s.Run(0); n != 6 {
		t.Errorf("drain Run = %d, want 6", n)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(10, func() { got = append(got, 10) })
	s.After(20, func() { got = append(got, 20) })
	s.After(30, func() { got = append(got, 30) })
	n := s.RunUntil(25)
	if n != 2 || len(got) != 2 {
		t.Errorf("RunUntil ran %d events: %v", n, got)
	}
	if s.Now() != 25 {
		t.Errorf("Now = %d, want 25", s.Now())
	}
	s.Run(0)
	if s.Now() != 30 {
		t.Errorf("final Now = %d", s.Now())
	}
}

// TestSchedulerHeapShrinks pins the retention fix: after a large burst
// drains, Run rebounds the heap's backing array instead of pinning the
// peak-sized allocation for the scheduler's lifetime.
func TestSchedulerHeapShrinks(t *testing.T) {
	s := NewScheduler(1)
	const burst = 100_000
	for i := 0; i < burst; i++ {
		s.After(Time(i), func() {})
	}
	if cap(s.heap) < burst {
		t.Fatalf("heap capacity %d never reached the burst size", cap(s.heap))
	}
	if got := s.Run(0); got != burst {
		t.Fatalf("Run processed %d events, want %d", got, burst)
	}
	if cap(s.heap) >= burst/4 {
		t.Fatalf("heap capacity %d retained after drain (want < %d)", cap(s.heap), burst/4)
	}
	// The scheduler must remain fully functional on the rebounded array.
	fired := 0
	for i := 0; i < 2000; i++ {
		s.After(Time(i), func() { fired++ })
	}
	if got := s.Run(0); got != 2000 || fired != 2000 {
		t.Fatalf("post-shrink run processed %d (fired %d), want 2000", got, fired)
	}
}

// TestSchedulerShrinkKeepsPending verifies the shrink copies live items: a
// RunUntil that leaves events pending must not lose or reorder them.
func TestSchedulerShrinkKeepsPending(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 50_000; i++ {
		i := i
		s.After(Time(i), func() { order = append(order, i) })
	}
	s.RunUntil(49_900) // drains all but the tail, triggering the shrink
	if got := len(order); got != 49_900 {
		t.Fatalf("RunUntil processed %d, want 49900", got)
	}
	s.Run(0)
	if got := len(order); got != 50_000 {
		t.Fatalf("total processed %d, want 50000", got)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("event %d fired out of order (got %d)", i, v)
		}
	}
}

// TestSchedulerHeapStress exercises the heap with random times and checks
// global ordering.
func TestSchedulerHeapStress(t *testing.T) {
	s := NewScheduler(42)
	rng := rand.New(rand.NewSource(9))
	var fired []Time
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int63n(100000))
		_ = s.At(at, func() { fired = append(fired, s.Now()) })
	}
	s.Run(0)
	if len(fired) != 5000 {
		t.Fatalf("fired %d", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("time went backwards at %d: %d -> %d", i, fired[i-1], fired[i])
		}
	}
}

// TestSchedulerDeterminism: two schedulers with the same seed and the same
// scheduling pattern (including rng-driven delays) produce identical traces.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewScheduler(7)
		lat := UniformLatency{Min: 10, Max: 500}
		var trace []Time
		var step func(depth int)
		step = func(depth int) {
			trace = append(trace, s.Now())
			if depth < 200 {
				s.After(lat.Delay(s.Rand()), func() { step(depth + 1) })
			}
		}
		s.After(0, func() { step(0) })
		s.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLatencyModels(t *testing.T) {
	if FixedLatency(42).Delay(nil) != 42 {
		t.Error("fixed latency wrong")
	}
	rng := rand.New(rand.NewSource(1))
	u := UniformLatency{Min: 10, Max: 20}
	for i := 0; i < 1000; i++ {
		d := u.Delay(rng)
		if d < 10 || d > 20 {
			t.Fatalf("uniform delay %d outside [10,20]", d)
		}
	}
	// Degenerate range.
	if (UniformLatency{Min: 5, Max: 5}).Delay(rng) != 5 {
		t.Error("degenerate uniform wrong")
	}
}

// TestTickerPeriodicFiring: the discrete-time facility fires at exact
// multiples of the period until stopped.
func TestTickerPeriodicFiring(t *testing.T) {
	s := NewScheduler(1)
	var times []Time
	tk := NewTicker(s, 10, func(now Time) { times = append(times, now) })
	s.RunUntil(55)
	if len(times) != 5 {
		t.Fatalf("fired %d times, want 5: %v", len(times), times)
	}
	for i, ts := range times {
		if ts != Time(10*(i+1)) {
			t.Errorf("firing %d at t=%d, want %d", i, ts, 10*(i+1))
		}
	}
	tk.Stop()
	s.Run(0)
	if tk.Fired() != 5 {
		t.Errorf("Fired = %d after stop, want 5", tk.Fired())
	}
}

// TestTickerInterleavesWithEvents: discrete-time activity and discrete
// events share the same clock and ordering.
func TestTickerInterleavesWithEvents(t *testing.T) {
	s := NewScheduler(1)
	var log []string
	NewTicker(s, 10, func(now Time) { log = append(log, "tick") })
	s.After(15, func() { log = append(log, "event") })
	s.RunUntil(21)
	want := []string{"tick", "event", "tick"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
}

// TestTickerDegeneratePeriod: non-positive periods snap to 1 and never
// wedge the scheduler.
func TestTickerDegeneratePeriod(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tk := NewTicker(s, 0, func(Time) { n++ })
	s.RunUntil(5)
	tk.Stop()
	s.Run(0)
	if n != 4 { // fires at t=1,2,3,4 (strictly before 5)
		t.Errorf("fired %d times, want 4", n)
	}
}
