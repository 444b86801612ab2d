// Package sim is the discrete-event simulation engine that plays the role
// VisibleSim plays in the paper (§V-E): a deterministic event core able to
// process millions of events per second on a laptop, hosting one BlockCode
// per block and delivering messages between adjacent blocks with configurable
// link latency. The paper reports simulations with 2 million modules at a
// rate of ~650k events/s; experiment E13 reproduces the throughput shape on
// this core (BenchmarkSimThroughput*).
package sim

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in ticks (the unit is arbitrary; the
// default latency model uses 1000 ticks per microsecond-like link hop).
type Time int64

// Event is a typed scheduled occurrence: the scheduler invokes Fire at its
// due time. Implementations that pool themselves (the engine's event arena,
// the scheduler's own funcEvent wrappers) make steady-state scheduling
// allocation-free, which is what lets the core sustain the §V-E event rates
// without GC pressure.
type Event interface {
	Fire()
}

// item is a scheduled event. seq breaks ties so that events scheduled at the
// same instant run in scheduling order, which keeps runs reproducible.
type item struct {
	t   Time
	seq uint64
	ev  Event
}

// funcEvent adapts a plain closure to Event; instances are recycled through
// the scheduler's free list so the legacy At/After API costs one wrapper
// allocation only until the pool warms up.
type funcEvent struct {
	s  *Scheduler
	fn func()
}

// Fire implements Event: it releases the wrapper before running the closure
// so a callback that schedules again can reuse it immediately.
func (e *funcEvent) Fire() {
	fn := e.fn
	e.fn = nil
	e.s.fpool = append(e.s.fpool, e)
	fn()
}

// Scheduler is a deterministic discrete-event core: a binary min-heap of
// events ordered by (time, sequence). The mix of "discrete-event core ...
// with discrete-time functionalities" of VisibleSim corresponds to Run
// (event-driven) and RunUntil (advance to a time boundary).
type Scheduler struct {
	heap      []item
	now       Time
	seq       uint64
	processed uint64
	rng       *rand.Rand
	fpool     []*funcEvent
}

// NewScheduler returns a scheduler whose randomness derives from seed;
// identical seeds give identical runs.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending returns the number of events waiting in the queue.
func (s *Scheduler) Pending() int { return len(s.heap) }

// ScheduleAt schedules a typed event at absolute time t; scheduling in the
// past is an error. Pooled events make this path allocation-free.
func (s *Scheduler) ScheduleAt(t Time, ev Event) error {
	if t < s.now {
		return fmt.Errorf("sim: scheduling at %d before now %d", t, s.now)
	}
	s.push(item{t: t, seq: s.seq, ev: ev})
	s.seq++
	return nil
}

// Schedule schedules a typed event d ticks from now; negative d clamps to
// now.
func (s *Scheduler) Schedule(d Time, ev Event) {
	if d < 0 {
		d = 0
	}
	// ScheduleAt cannot fail for t >= now.
	_ = s.ScheduleAt(s.now+d, ev)
}

// At schedules fn at absolute time t; scheduling in the past is an error.
func (s *Scheduler) At(t Time, fn func()) error {
	return s.ScheduleAt(t, s.wrap(fn))
}

// After schedules fn d ticks from now; negative d clamps to now.
func (s *Scheduler) After(d Time, fn func()) {
	s.Schedule(d, s.wrap(fn))
}

// wrap recycles a funcEvent wrapper around fn.
func (s *Scheduler) wrap(fn func()) *funcEvent {
	if n := len(s.fpool); n > 0 {
		e := s.fpool[n-1]
		s.fpool = s.fpool[:n-1]
		e.fn = fn
		return e
	}
	return &funcEvent{s: s, fn: fn}
}

// Step executes the earliest pending event; it reports false when the queue
// is empty.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.t
	s.processed++
	ev.ev.Fire()
	return true
}

// Run executes events until the queue drains or maxEvents have run in this
// call (0 = unbounded). It returns the number of events executed by the call.
func (s *Scheduler) Run(maxEvents uint64) uint64 {
	var n uint64
	for (maxEvents == 0 || n < maxEvents) && s.Step() {
		n++
	}
	s.maybeShrink()
	return n
}

// RunUntil executes all events scheduled strictly before t, then advances
// the clock to t. It returns the number of events executed.
func (s *Scheduler) RunUntil(t Time) uint64 {
	var n uint64
	for len(s.heap) > 0 && s.heap[0].t < t {
		s.Step()
		n++
	}
	if s.now < t {
		s.now = t
	}
	s.maybeShrink()
	return n
}

// shrinkMinCap is the heap capacity below which maybeShrink never bothers:
// small queues re-grow cheaply and the waste is bounded anyway.
const shrinkMinCap = 1024

// maybeShrink releases the heap's backing array when the pending count has
// dropped far below its capacity. A burst (the boot wave schedules one event
// per block, then drains to a trickle) would otherwise pin the peak-sized
// array for the life of the scheduler — at §VI scale, hundreds of MB of dead
// queue. Run/RunUntil call it once per drive, so the rebound cost is far off
// the per-event path; the 4x hysteresis keeps steady-state oscillation from
// ever triggering a copy.
func (s *Scheduler) maybeShrink() {
	if cap(s.heap) < shrinkMinCap || len(s.heap)*4 > cap(s.heap) {
		return
	}
	shrunk := make([]item, len(s.heap), max(len(s.heap)*2, 64))
	copy(shrunk, s.heap)
	s.heap = shrunk
}

// push inserts into the binary min-heap ordered by (t, seq).
func (s *Scheduler) push(ev item) {
	s.heap = append(s.heap, ev)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// pop removes the minimum element.
func (s *Scheduler) pop() item {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[last] = item{} // drop the Event reference behind the shrunk slice
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && less(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < last && less(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
	return top
}

func less(a, b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// LatencyModel draws the link traversal delay of a message.
type LatencyModel interface {
	// Delay returns the delay for one message; implementations may use rng
	// (deterministically seeded by the engine).
	Delay(rng *rand.Rand) Time
}

// FixedLatency delivers every message after a constant delay.
type FixedLatency Time

// Delay implements LatencyModel.
func (f FixedLatency) Delay(*rand.Rand) Time { return Time(f) }

// UniformLatency delivers messages after a delay drawn uniformly from
// [Min, Max]: the asynchronous-communication model of Assumption 3 ("all
// communications between adjacent blocks occur in finite time", with no
// bound on order).
type UniformLatency struct {
	Min, Max Time
}

// Delay implements LatencyModel.
func (u UniformLatency) Delay(rng *rand.Rand) Time {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + Time(rng.Int63n(int64(u.Max-u.Min+1)))
}
