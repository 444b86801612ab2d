package server

import (
	"context"
	"sync"

	"repro/internal/core"
)

// flight is one engine run and the clients attached to it. A cacheable run
// is a shared flight: the first request with a given cache key becomes the
// leader and submits the single runReq; every later identical request
// attaches as a follower and tails the flight's append-only event history
// instead of starting a duplicate engine run. A ?cache=bypass run is a
// private flight: never indexed, never cached, its one client the leader.
// The run's lifetime is tied to the set of attached clients, not to the
// leader alone — the run context cancels when the last client detaches (so
// a leader disconnect cannot kill a run other clients are still streaming)
// or when Shutdown force-cancels the server's run context it derives from.
type flight struct {
	key      string
	scenName string
	private  bool            // ?cache=bypass: fills no cache entry, is in no flight table
	ctx      context.Context // the engine run's context
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
func (f *flight) tail(from int) (evs []core.Event, completed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < len(f.events) {
		evs = f.events[from:len(f.events):len(f.events)]
	}
	return evs, f.done
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
// back to the pool.
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

// complete records the outcome, wakes every subscriber, cancels the
// flight's context and, if no client is attached any more, releases the
// buffer. The cancel matters even after a clean run: until it is called the
// context stays registered with the server's run context, so every
// finished flight would leak one child there.
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
	f.cancel()
	if orphaned {
		f.release()
	}
}

// release returns the event buffer to the pool (once).
func (f *flight) release() {
	f.mu.Lock()
	buf := f.events
	already := f.released
	f.released = true
	f.events = nil
	f.mu.Unlock()
	if !already && buf != nil {
		putEventBuf(buf)
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

// newFlight builds a flight with its creator attached as the leader; the
// caller must detach exactly once. Its context derives from parent, the
// server's run context, so Shutdown's force-cancel reaches every run.
func newFlight(parent context.Context, key, scenName string, private bool) *flight {
	ctx, cancel := context.WithCancel(parent)
	return &flight{
		key:      key,
		scenName: scenName,
		private:  private,
		ctx:      ctx,
		cancel:   cancel,
		events:   getEventBuf(),
		subs:     make(map[int]chan struct{}),
		refs:     1,
		doneCh:   make(chan struct{}),
	}
}

// flightTable indexes the shared in-flight runs by cache key.
type flightTable struct {
	ctx context.Context // parent of every flight's context
	mu  sync.Mutex
	m   map[string]*flight
}

func newFlightTable(ctx context.Context) *flightTable {
	return &flightTable{ctx: ctx, m: make(map[string]*flight)}
}

// join attaches to the flight for key, creating it (leader=true) when none
// is in flight or the indexed one is abandoned: its last client detached
// before it had an outcome, so its run is being cancelled and a follower
// would only inherit the cancellation. The returned flight always has the
// caller counted in refs; the caller must detach exactly once.
func (t *flightTable) join(key, scenName string) (f *flight, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[key]; ok {
		f.mu.Lock()
		live := f.refs > 0 || f.done
		if live {
			f.refs++
		}
		f.mu.Unlock()
		if live {
			return f, false
		}
	}
	f = newFlight(t.ctx, key, scenName, false)
	t.m[key] = f
	return f, true
}

// remove unindexes f so later identical requests start fresh (or hit the
// cache the completing run just filled) — but only while f is still the
// table's flight for its key: an abandoned flight's completion must not
// unindex the fresh flight that replaced it, and a private flight is never
// indexed at all.
func (t *flightTable) remove(f *flight) {
	t.mu.Lock()
	if t.m[f.key] == f {
		delete(t.m, f.key)
	}
	t.mu.Unlock()
}

// interface check
var _ core.Observer = (*flight)(nil)
