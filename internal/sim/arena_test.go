package sim

import (
	"testing"
)

// reschedulingEvent is a typed self-rescheduling timer: the steady-state
// workload of the throughput benchmark.
type reschedulingEvent struct {
	s         *Scheduler
	remaining int
}

func (e *reschedulingEvent) Fire() {
	if e.remaining <= 0 {
		return
	}
	e.remaining--
	e.s.Schedule(3, e)
}

// TestSchedulerTypedEventAllocs pins the typed event ring's contract: once
// the heap and pools are warm, firing and rescheduling typed events
// allocates nothing (the ROADMAP's scheduler-arena item; the old design
// paid one closure allocation per scheduled event).
func TestSchedulerTypedEventAllocs(t *testing.T) {
	s := NewScheduler(1)
	ev := &reschedulingEvent{s: s, remaining: 1 << 30}
	s.Schedule(0, ev)
	// Warm up: grow the heap backing array and the event pool.
	for i := 0; i < 64; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("queue drained during the allocation probe")
		}
	})
	if allocs != 0 {
		t.Fatalf("typed event steady state allocates %.1f allocs/event, want 0", allocs)
	}
}

// eventFunc adapts a closure to Event for tests (without pooling).
type eventFunc func()

func (f eventFunc) Fire() { f() }
