package server

import (
	"container/list"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// cacheEntry is one memoized run: the flattened result plus the compacted
// observer event history, so a hit can serve the plain-JSON response and
// replay the NDJSON/SSE stream byte-identically to the engine-served one
// (the stored timing block is the original run's, replayed verbatim —
// cached responses are recordings, and re-rendering the same records
// through the same encoder is deterministic). Entries are immutable after
// insertion: readers iterate events without holding the cache lock.
type cacheEntry struct {
	key      string
	scenName string
	res      core.Result
	timing   wireTiming
	events   []core.Event
	bytes    int64
}

// entryBytes estimates an entry's retained footprint: the structs
// themselves plus the out-of-line payloads (winner lists, wave stamps). An
// estimate is all byte-accounting needs — the budget bounds memory to the
// right order of magnitude, not exactly.
func entryBytes(e *cacheEntry) int64 {
	n := int64(unsafe.Sizeof(cacheEntry{})) + int64(len(e.key)+len(e.scenName))
	base := int64(unsafe.Sizeof(core.Event{}))
	for _, ev := range e.events {
		n += base
		n += int64(cap(ev.Winners)) * 4
		n += int64(cap(ev.WaveStamps))
	}
	return n
}

// resultCache is the content-addressed result cache: a byte-accounted LRU
// over canonical RunSpec keys. Identical spec+seed runs on the DES are
// deterministic, so a hit is semantically exact — the service replays
// the recorded run instead of re-executing it.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element

	hits, misses, evictions uint64
	peekHits, peekMisses    uint64
}

// newResultCache builds a cache with the given byte budget; a non-positive
// budget disables storage (lookups miss, puts drop) while leaving the
// counters live.
func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// get returns the entry for key, promoting it to most recently used.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// peek is the peering lookup: no LRU promotion (the key's ring owner is
// now another replica — serving a transfer is not local reuse) and its own
// counters, so peer traffic never skews the client hit ratio.
func (c *resultCache) peek(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.peekMisses++
		return nil, false
	}
	c.peekHits++
	return el.Value.(*cacheEntry), true
}

// put inserts (or replaces) the entry and evicts from the LRU tail until
// the budget holds. An entry larger than the whole budget is not stored.
func (c *resultCache) put(e *cacheEntry) {
	e.bytes = entryBytes(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes <= 0 || e.bytes > c.maxBytes {
		return
	}
	if el, ok := c.byKey[e.key]; ok {
		c.bytes -= el.Value.(*cacheEntry).bytes
		c.ll.Remove(el)
		delete(c.byKey, e.key)
	}
	for c.bytes+e.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		old := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
		c.evictions++
	}
	c.byKey[e.key] = c.ll.PushFront(e)
	c.bytes += e.bytes
}

// CacheSnapshot is the /metrics view of the cache.
type CacheSnapshot struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Bypass    uint64 `json:"bypass"`
	Evictions uint64 `json:"evictions"`
	// Peering traffic: peeks this replica answered for others, and runs
	// this replica adopted from a peer instead of re-running the engine.
	PeekHits   uint64 `json:"peek_hits"`
	PeekMisses uint64 `json:"peek_misses"`
	PeerHits   uint64 `json:"peer_hits"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	MaxBytes   int64  `json:"max_bytes"`
}

// snapshot returns the cache counters (coalesced/bypass are folded in by
// Metrics, which owns those counts).
func (c *resultCache) snapshot() CacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheSnapshot{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		PeekHits:   c.peekHits,
		PeekMisses: c.peekMisses,
		Entries:    c.ll.Len(),
		Bytes:      c.bytes,
		MaxBytes:   c.maxBytes,
	}
}
