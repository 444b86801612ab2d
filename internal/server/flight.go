package server

import (
	"context"
	"sync"

	"repro/internal/core"
)

// flight is one in-flight engine run that concurrent identical specs share:
// the first request with a given cache key becomes the leader and submits
// the single runReq; every later identical request attaches as a follower
// and tails the flight's append-only event history instead of starting a
// duplicate engine run. The run's lifetime is tied to the set of
// attached clients, not to the leader alone — the run context cancels only
// when the last client detaches, so a leader disconnect cannot kill a run
// other clients are still streaming.
type flight struct {
	key      string
	scenName string
	runCtx   context.Context // the engine instance's context
	cancel   context.CancelFunc

	mu       sync.Mutex
	events   []core.Event // append-only; readers tail by index
	subs     map[int]chan struct{}
	nextSub  int
	refs     int // attached clients (leader included)
	done     bool
	out      runOutcome
	timing   wireTiming
	released bool

	doneCh chan struct{} // closed on complete, for result-only waiters
}

// OnEvent implements core.Observer for the engine side: append and wake
// every tailing subscriber.
func (f *flight) OnEvent(ev core.Event) {
	f.mu.Lock()
	f.events = append(f.events, ev)
	for _, wake := range f.subs {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	f.mu.Unlock()
}

// subscribe registers a tail reader; the returned wake channel is
// level-triggered ("new events or completion"). Pair with unsubscribe.
func (f *flight) subscribe() (id int, wake chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id = f.nextSub
	f.nextSub++
	wake = make(chan struct{}, 1)
	f.subs[id] = wake
	return id, wake
}

func (f *flight) unsubscribe(id int) {
	f.mu.Lock()
	delete(f.subs, id)
	f.mu.Unlock()
}

// tail returns the events from index `from` on (a stable view: the backing
// array is only appended to, and released to the pool only after the last
// attached client detaches) plus whether the flight has completed.
func (f *flight) tail(from int) (evs []core.Event, completed bool, out runOutcome) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < len(f.events) {
		evs = f.events[from:len(f.events):len(f.events)]
	}
	return evs, f.done, f.out
}

// outcome returns the completed flight's result and timing — valid once
// doneCh has closed or tail has reported completion.
func (f *flight) outcome() (runOutcome, wireTiming) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.out, f.timing
}

// detach drops one attached client. When the last client leaves an
// unfinished flight its run is cancelled (nobody wants the answer any
// more); when the last client leaves a finished one the event buffer goes
// back to the spool pool.
func (f *flight) detach() {
	f.mu.Lock()
	f.refs--
	last := f.refs <= 0
	finished := f.done
	f.mu.Unlock()
	if !last {
		return
	}
	if !finished {
		f.cancel()
		return
	}
	f.release()
}

// complete records the outcome, wakes every subscriber and, if no client is
// attached any more, releases the buffer.
func (f *flight) complete(out runOutcome, timing wireTiming) {
	f.mu.Lock()
	f.done = true
	f.out = out
	f.timing = timing
	for _, wake := range f.subs {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	orphaned := f.refs <= 0
	f.mu.Unlock()
	close(f.doneCh)
	if orphaned {
		f.release()
	}
}

// release returns the event buffer to the spool pool (once).
func (f *flight) release() {
	f.mu.Lock()
	buf := f.events
	already := f.released
	f.released = true
	f.events = nil
	f.mu.Unlock()
	if !already && buf != nil {
		putSpoolBuf(buf)
	}
}

// compactEvents copies the completed history into an exactly-sized slice
// the cache entry owns (the flight's own buffer is pooled and will be
// reused).
func (f *flight) compactEvents() []core.Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.events) == 0 {
		return nil
	}
	out := make([]core.Event, len(f.events))
	copy(out, f.events)
	return out
}

// flightTable indexes the in-flight runs by cache key.
type flightTable struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightTable() *flightTable {
	return &flightTable{m: make(map[string]*flight)}
}

// join attaches to the flight for key, creating it (leader=true) when none
// is in flight. The returned flight always has the caller counted in refs;
// the caller must detach exactly once.
func (t *flightTable) join(key, scenName string) (f *flight, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[key]; ok {
		f.mu.Lock()
		f.refs++
		f.mu.Unlock()
		return f, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	f = &flight{
		key:      key,
		scenName: scenName,
		runCtx:   ctx,
		cancel:   cancel,
		events:   getSpoolBuf(),
		subs:     make(map[int]chan struct{}),
		refs:     1,
		doneCh:   make(chan struct{}),
	}
	t.m[key] = f
	return f, true
}

// remove unindexes the flight so later identical requests start fresh (or
// hit the cache the completing run just filled).
func (t *flightTable) remove(key string) {
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
}

// interface check
var _ core.Observer = (*flight)(nil)
