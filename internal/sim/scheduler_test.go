package sim

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.Schedule(30, eventFunc(func() { got = append(got, 3) }))
	s.Schedule(10, eventFunc(func() { got = append(got, 1) }))
	s.Schedule(20, eventFunc(func() { got = append(got, 2) }))
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
		s.Schedule(5, eventFunc(func() { got = append(got, i) }))
	}
	s.Run(0)
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-instant events not in scheduling order: %v", got[:10])
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var got []string
	s.Schedule(10, eventFunc(func() {
		got = append(got, "a")
		s.Schedule(5, eventFunc(func() { got = append(got, "c") }))
		s.Schedule(0, eventFunc(func() { got = append(got, "b") }))
	}))
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
	s.Schedule(10, eventFunc(func() {}))
	s.Run(0)
	if err := s.ScheduleAt(5, eventFunc(func() {})); err == nil {
		t.Error("scheduling in the past must fail")
	}
	// A negative delay clamps to now.
	fired := false
	s.Schedule(-7, eventFunc(func() { fired = true }))
	s.Run(0)
	if !fired {
		t.Error("clamped event did not fire")
	}
}

func TestSchedulerRunBudget(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i), eventFunc(func() {}))
	}
	if n := s.Run(4); n != 4 {
		t.Errorf("bounded Run = %d, want 4", n)
	}
	if n := s.Run(0); n != 6 {
		t.Errorf("drain Run = %d, want 6", n)
	}
}

// TestSchedulerRingShrinks pins the retention fix: after a large burst
// drains, Run releases the peak-sized node slab and ring instead of pinning
// them for the scheduler's lifetime.
func TestSchedulerRingShrinks(t *testing.T) {
	s := NewScheduler(1)
	const burst = 100_000
	for i := 0; i < burst; i++ {
		s.Schedule(Time(i), eventFunc(func() {}))
	}
	if cap(s.nodes) < burst || len(s.head) < burst {
		t.Fatalf("slab capacity %d and ring length %d never reached the burst size",
			cap(s.nodes), len(s.head))
	}
	if got := s.Run(0); got != burst {
		t.Fatalf("Run processed %d events, want %d", got, burst)
	}
	if cap(s.nodes) >= burst/4 || len(s.head) >= burst/4 {
		t.Fatalf("slab capacity %d and ring length %d retained after drain (want < %d)",
			cap(s.nodes), len(s.head), burst/4)
	}
	// The scheduler must remain fully functional on the rebuilt stores.
	fired := 0
	for i := 0; i < 2000; i++ {
		s.Schedule(Time(i), eventFunc(func() { fired++ }))
	}
	if got := s.Run(0); got != 2000 || fired != 2000 {
		t.Fatalf("post-shrink run processed %d (fired %d), want 2000", got, fired)
	}
}

// TestSchedulerShrinkKeepsPending verifies the shrink moves live events: a
// bounded Run that leaves events pending must not lose or reorder them.
func TestSchedulerShrinkKeepsPending(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 50_000; i++ {
		i := i
		s.Schedule(Time(i), eventFunc(func() { order = append(order, i) }))
	}
	s.Run(49_900) // drains all but the tail, triggering the shrink
	if got := len(order); got != 49_900 {
		t.Fatalf("bounded Run processed %d, want 49900", got)
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

// TestSchedulerStress exercises the queue with random times up to 100,000
// ticks ahead and checks global ordering.
func TestSchedulerStress(t *testing.T) {
	s := NewScheduler(42)
	rng := rand.New(rand.NewSource(9))
	var fired []Time
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int63n(100000))
		_ = s.ScheduleAt(at, eventFunc(func() { fired = append(fired, s.Now()) }))
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

// TestSchedulerMatchesSortedOrder is a differential test against the
// definition of the queue's order: every scheduled event fires exactly once,
// at its tick, and the firing sequence is the scheduled events sorted by
// (time, scheduling order). Each phase raises the largest delay, so the
// ring grows mid-run; events schedule further events as they fire, many at
// the tick they fire in; and the drive alternates bounded Run calls, on
// whose return the stores may shrink under pending events, with scheduling
// from outside.
func TestSchedulerMatchesSortedOrder(t *testing.T) {
	type rec struct {
		t   Time
		seq int
	}
	const limit = 60_000
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(5))
	var scheduled, fired []rec
	maxDelay := Time(0)
	delay := func() Time {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return Time(rng.Intn(4))
		}
		return Time(rng.Int63n(int64(maxDelay) + 1))
	}
	var schedule func(d Time)
	schedule = func(d Time) {
		r := rec{t: s.Now() + d, seq: len(scheduled)}
		scheduled = append(scheduled, r)
		s.Schedule(d, eventFunc(func() {
			if s.Now() != r.t {
				t.Fatalf("event %d due at %d fired at %d", r.seq, r.t, s.Now())
			}
			fired = append(fired, r)
			for n := rng.Intn(3); n > 0 && len(scheduled) < limit; n-- {
				schedule(delay())
			}
		}))
	}
	grew, shrank := false, false
	for _, maxDelay = range []Time{40, 3_000, 70_000, 500} {
		ring := len(s.head)
		for i := 0; i < 6_000; i++ {
			schedule(delay())
		}
		grew = grew || len(s.head) > ring
		for s.pending > 0 {
			ring, slab := len(s.head), cap(s.nodes)
			s.Run(uint64(1 + rng.Intn(2_000)))
			if s.pending > 0 && (len(s.head) < ring || cap(s.nodes) < slab) {
				shrank = true
			}
			if rng.Intn(8) == 0 {
				schedule(delay())
			}
		}
	}
	if !grew || !shrank {
		t.Fatalf("the drive never grew the ring (%v) or shrank under pending events (%v)", grew, shrank)
	}
	if len(fired) != len(scheduled) {
		t.Fatalf("fired %d of %d scheduled events", len(fired), len(scheduled))
	}
	want := slices.Clone(scheduled)
	slices.SortFunc(want, func(a, b rec) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing %d is event %d at %d, want event %d at %d",
				i, fired[i].seq, fired[i].t, want[i].seq, want[i].t)
		}
	}
}

// earliestByScan is earliest without the summary bitmap: it scans the busy
// words one by one from now's bucket, wrapping once around the ring.
func earliestByScan(s *Scheduler) Time {
	start := s.now & s.mask
	w := int(start >> 6)
	word := s.busy[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		if w++; w == len(s.busy) {
			w = 0
		}
		word = s.busy[w]
	}
	i := Time(w<<6 + bits.TrailingZeros64(word))
	return s.now + (i-start)&s.mask
}

// TestSchedulerSummaryMatchesLinearScan is a differential test of the
// summary bitmap over random schedule and pop sequences whose delays wrap
// the ring, grow it (rebuild) and let it shrink again under pending events
// (maybeShrink): before every pop, each summary bit says whether its busy
// word is non-empty, and earliest agrees with a linear scan of the busy
// words.
func TestSchedulerSummaryMatchesLinearScan(t *testing.T) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(3))
	pops, wraps, multiWord, shrank := 0, 0, false, false
	pop := func() {
		for w, word := range s.busy {
			if bit := s.summary[w>>6]>>(w&63)&1 == 1; bit != (word != 0) {
				t.Fatalf("pop %d: summary bit of busy word %d is %t, word %#x", pops, w, bit, word)
			}
		}
		got, want := s.earliest(), earliestByScan(s)
		if got != want {
			t.Fatalf("pop %d: earliest = %d, linear scan %d (now %d, ring %d)", pops, got, want, s.now, len(s.head))
		}
		if got&s.mask < s.now&s.mask {
			wraps++
		}
		multiWord = multiWord || len(s.summary) > 1
		if rng.Intn(50) == 0 {
			ring := len(s.head)
			s.Run(1) // pops once, then may shrink
			shrank = shrank || s.pending > 0 && len(s.head) < ring
		} else {
			s.Step()
		}
		pops++
	}
	for _, maxDelay := range []Time{50, 5_000, 300_000, 2_000, 100} {
		for i := 0; i < 3_000; i++ {
			s.Schedule(Time(rng.Int63n(int64(maxDelay)+1)), eventFunc(func() {}))
			if rng.Intn(3) == 0 {
				pop()
			}
		}
		for s.pending > 0 {
			pop()
			if rng.Intn(4) == 0 {
				s.Schedule(Time(rng.Int63n(int64(maxDelay)+1)), eventFunc(func() {}))
			}
		}
	}
	if wraps == 0 || !multiWord || !shrank {
		t.Fatalf("the drive never wrapped (%d), used a multi-word summary (%t) or shrank under pending events (%t)",
			wraps, multiWord, shrank)
	}
}

// TestSchedulerHorizon checks that a delay past the horizon fails
// explicitly and leaves the queue as it was, while the last tick inside the
// horizon is accepted.
func TestSchedulerHorizon(t *testing.T) {
	s := NewScheduler(1)
	s.Schedule(10, eventFunc(func() {}))
	s.Run(0)
	if err := s.ScheduleAt(s.Now()+horizon, eventFunc(func() {})); err == nil {
		t.Error("ScheduleAt past the horizon must fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule past the horizon must panic")
			}
		}()
		s.Schedule(horizon, eventFunc(func() {}))
	}()
	if s.pending != 0 || len(s.head) != minRing {
		t.Fatalf("refused events left %d pending and a %d-bucket ring", s.pending, len(s.head))
	}
	fired := false
	if err := s.ScheduleAt(s.Now()+horizon-1, eventFunc(func() { fired = true })); err != nil {
		t.Fatalf("last tick inside the horizon refused: %v", err)
	}
	if len(s.head) != int(horizon) {
		t.Errorf("ring length %d, want the %d-bucket cap", len(s.head), horizon)
	}
	if s.Run(0); !fired || s.Now() != 10+horizon-1 {
		t.Errorf("fired %v at %d, want true at %d", fired, s.Now(), 10+horizon-1)
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
				s.Schedule(lat.Delay(s.Rand()), eventFunc(func() { step(depth + 1) }))
			}
		}
		s.Schedule(0, eventFunc(func() { step(0) }))
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
