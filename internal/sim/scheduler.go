// Package sim is the discrete-event simulation engine that plays the role
// VisibleSim plays in the paper (§V-E): a deterministic event core able to
// process millions of events per second on a laptop, hosting one BlockCode
// per block and delivering messages between adjacent blocks with configurable
// link latency. The paper reports simulations with 2 million modules at a
// rate of ~650k events/s; experiment E13 reproduces the throughput shape on
// this core (BenchmarkSimThroughput*).
//
// The Engine owns only time: the scheduler, the seeded link latencies and
// the events that deliver messages and motion notifications. The run's
// exec.World answers everything physical.
//
// The event core (Scheduler) is a ring of FIFO buckets, one per tick of
// virtual time: scheduling an event and popping the earliest one take
// constant time plus a two-level bitmap scan to the next busy tick. It holds
// 24 bytes per pending event and 8 bytes per tick of the longest delay
// scheduled, and refuses delays of 2^20 ticks or more.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is virtual simulation time in ticks (the unit is arbitrary; the
// default latency model uses 1000 ticks per microsecond-like link hop).
type Time int64

// Event is a typed scheduled occurrence: the scheduler invokes Fire at its
// due time. Implementations that pool themselves (the engine's event arena)
// make steady-state scheduling allocation-free, which is what lets the core
// sustain the §V-E event rates without GC pressure.
type Event interface {
	Fire()
}

// Scheduler is a deterministic discrete-event core: a ring of FIFO buckets,
// one per tick, over the window [now, now+len(ring)). Every pending event
// lies inside the window, so each bucket holds the events of exactly one
// tick, in scheduling order, and popping the first event of the earliest
// non-empty bucket runs events in (time, scheduling order).
//
// The ring sizes itself: it grows to the next power of two above the
// largest delay scheduled so far (2,048 buckets for core's default
// 500–1,500-tick latency), at 8 bytes per bucket plus one bit in the
// non-empty bitmap, and Run gives a large ring back once the pending events
// span a quarter of it. A delay of horizon (2^20) ticks or more is refused,
// which caps the ring at 8 MiB. Pending events live in one slab of 24-byte
// nodes with a free list, so steady-state scheduling allocates nothing.
type Scheduler struct {
	now       Time
	processed uint64
	pending   int
	rng       *rand.Rand

	// head[i] and tail[i] are the first and last node of the bucket of the
	// tick t in the window with t&mask == i; head[i] == 0 marks it empty.
	head, tail []int32
	mask       Time
	// busy has bit i set iff bucket i is non-empty, and summary has bit w
	// set iff busy[w] is non-zero, so earliest skips 64 empty words per
	// summary word it reads.
	busy, summary []uint64
	// nodes holds every pending event; nodes[0] is unused, so 0 means "no
	// node". free heads the list of released nodes, linked through next.
	nodes []node
	free  int32
}

// node is one pending event and the next node of its bucket (or of the
// free list).
type node struct {
	ev   Event
	next int32
}

// horizon bounds how far ahead an event may be scheduled: a delay must be
// below it, so the ring never exceeds horizon buckets. It is ten times the
// largest delay any caller in this repository uses.
const horizon Time = 1 << 20

// minRing is the smallest ring: one word of the non-empty bitmap.
const minRing = 64

// NewScheduler returns a scheduler whose randomness derives from seed;
// identical seeds give identical runs.
func NewScheduler(seed int64) *Scheduler {
	s := &Scheduler{rng: rand.New(rand.NewSource(seed))}
	s.rebuild(minRing, minRing)
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// ScheduleAt schedules a typed event at absolute time t. Scheduling in the
// past, or horizon ticks or more ahead of now, is an error. Pooled events
// make this path allocation-free.
func (s *Scheduler) ScheduleAt(t Time, ev Event) error {
	if t < s.now {
		return fmt.Errorf("sim: scheduling at %d before now %d", t, s.now)
	}
	d := t - s.now
	if d >= horizon {
		return fmt.Errorf("sim: scheduling %d ticks ahead of now %d, past the %d-tick horizon", d, s.now, horizon)
	}
	if d > s.mask {
		s.rebuild(1<<bits.Len64(uint64(d)), cap(s.nodes))
	}
	n := s.free
	if n != 0 {
		s.free = s.nodes[n].next
		s.nodes[n] = node{ev: ev}
	} else {
		n = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{ev: ev})
	}
	s.link(t&s.mask, n)
	s.pending++
	return nil
}

// Schedule schedules a typed event d ticks from now; negative d clamps to
// now. A delay of horizon ticks or more panics.
func (s *Scheduler) Schedule(d Time, ev Event) {
	if err := s.ScheduleAt(s.now+max(d, 0), ev); err != nil {
		panic(err)
	}
}

// link appends node n to the tail of bucket i.
func (s *Scheduler) link(i Time, n int32) {
	if s.head[i] == 0 {
		s.head[i] = n
		s.busy[i>>6] |= 1 << (i & 63)
		s.summary[i>>12] |= 1 << (i >> 6 & 63)
	} else {
		s.nodes[s.tail[i]].next = n
	}
	s.tail[i] = n
}

// Step executes the earliest pending event; it reports false when the queue
// is empty.
func (s *Scheduler) Step() bool {
	if s.pending == 0 {
		return false
	}
	t := s.earliest()
	i := t & s.mask
	n := s.head[i]
	nd := &s.nodes[n]
	ev := nd.ev
	s.head[i] = nd.next
	if nd.next == 0 {
		if s.busy[i>>6] &^= 1 << (i & 63); s.busy[i>>6] == 0 {
			s.summary[i>>12] &^= 1 << (i >> 6 & 63)
		}
	}
	// Release the node, dropping its Event reference.
	*nd = node{next: s.free}
	s.free = n
	s.pending--
	s.now = t
	s.processed++
	ev.Fire()
	return true
}

// earliest returns the tick of the earliest non-empty bucket: the first
// busy bit at or after now's bucket, wrapping once around the ring. The
// queue must not be empty.
func (s *Scheduler) earliest() Time {
	start := s.now & s.mask
	w := int(start >> 6)
	word := s.busy[w] &^ (1<<(start&63) - 1)
	if word == 0 {
		// The next busy word after start's, in ring order. Back at start's
		// word after the wrap, its low bits are the window's latest ticks.
		next, ok := s.busyWordFrom(w + 1)
		if !ok {
			next, _ = s.busyWordFrom(0)
		}
		w = next
		word = s.busy[w]
	}
	i := Time(w<<6 + bits.TrailingZeros64(word))
	return s.now + (i-start)&s.mask
}

// busyWordFrom returns the first non-zero busy word at or after index w,
// read off the summary, or false when there is none.
func (s *Scheduler) busyWordFrom(w int) (int, bool) {
	j := w >> 6
	if j >= len(s.summary) {
		return 0, false
	}
	word := s.summary[j] &^ (1<<(w&63) - 1)
	for word == 0 {
		if j++; j == len(s.summary) {
			return 0, false
		}
		word = s.summary[j]
	}
	return j<<6 + bits.TrailingZeros64(word), true
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

// shrinkMinCap is the ring length and slab capacity below which
// maybeShrink leaves them alone: small stores re-grow cheaply, the waste is
// bounded anyway, and the 2,048-bucket ring of core's default latency never
// churns.
const shrinkMinCap = 4096

// maybeShrink releases the node slab when the pending events fill a quarter
// of it or less, and the ring when they span a quarter of it or less. A
// burst (the boot wave schedules one event per block, then drains to a
// trickle) would otherwise pin the peak-sized slab for the life of the
// scheduler — at §VI scale, hundreds of MB of dead queue — and one long
// delay the peak-sized ring. Run calls it once on return (Engine.Drive once
// per driveChunk events), so the rebuild is far off the per-event path; the
// 4x hysteresis keeps steady-state oscillation from ever triggering a copy.
func (s *Scheduler) maybeShrink() {
	ring, slab := len(s.head), cap(s.nodes)
	if ring >= shrinkMinCap {
		// The shrunk ring must still cover the latest pending tick.
		last := Time(0)
		for w, word := range s.busy {
			for ; word != 0; word &= word - 1 {
				i := Time(w<<6 + bits.TrailingZeros64(word))
				last = max(last, (i-s.now)&s.mask)
			}
		}
		if need := max(minRing, 1<<bits.Len64(uint64(last))); need*4 <= ring {
			ring = need
		}
	}
	if slab >= shrinkMinCap && s.pending*4 <= slab {
		slab = max(s.pending*2, minRing)
	}
	if ring != len(s.head) || slab != cap(s.nodes) {
		s.rebuild(ring, slab)
	}
}

// rebuild moves every pending event into a fresh ring of size buckets (a
// power of two covering every pending tick) and a fresh slab of capacity
// slabCap, keeping each event's tick and its place in its tick's FIFO.
func (s *Scheduler) rebuild(size, slabCap int) {
	oldHead, oldMask, oldNodes := s.head, s.mask, s.nodes
	s.head = make([]int32, size)
	s.tail = make([]int32, size)
	s.busy = make([]uint64, (size+63)/64)
	s.summary = make([]uint64, (len(s.busy)+63)/64)
	s.mask = Time(size - 1)
	s.nodes = make([]node, 1, max(slabCap, s.pending+1))
	s.free = 0
	for off := Time(0); off <= oldMask && len(s.nodes) <= s.pending; off++ {
		t := s.now + off
		for n := oldHead[t&oldMask]; n != 0; n = oldNodes[n].next {
			m := int32(len(s.nodes))
			s.nodes = append(s.nodes, node{ev: oldNodes[n].ev})
			s.link(t&s.mask, m)
		}
	}
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
