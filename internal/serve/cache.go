package serve

import (
	"container/list"
	"sync"
)

// lru is a small mutex-guarded LRU map bounded by entry count. The
// server keeps two, each bounded by Config.CacheEntries: completed
// results keyed by plan fingerprint, and planned statements keyed by
// their exact SQL text.
//
// Both are safe for the engine's lifecycle: tables are immutable once
// registered, so a result table (never mutated after Run returns) can be
// shared by every hit, and a planned tree — which depends only on the
// catalog and Config.UniqueKeys, never on tenant, workers or memory
// budget, whose spill and positional decisions are made at run time —
// can be run again, concurrently too, since per-run state lives on the
// run's plan.Context.
//
// There is no singleflight: two concurrent misses on one key both
// compute the value and the first store wins. Both values are identical
// by the engine's determinism contract, so the only cost is duplicated
// work under a cold cache.
type lru[V any] struct {
	mu      sync.Mutex
	cap     int
	size    func(V) int64 // bytes an entry holds; nil counts none
	entries map[string]*list.Element
	order   list.List // front = most recent; values are *lruEntry[V]
	bytes   int64
}

type lruEntry[V any] struct {
	key   string
	val   V
	bytes int64
}

func newLRU[V any](capacity int, size func(V) int64) *lru[V] {
	return &lru[V]{cap: capacity, size: size, entries: make(map[string]*list.Element)}
}

// get returns the value cached under key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry[V]).val, true
}

// put stores val under key, evicting least-recently-used entries past
// capacity, and returns the bytes the cache holds.
func (c *lru[V]) put(key string, val V) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		return c.bytes
	}
	ent := &lruEntry[V]{key: key, val: val}
	if c.size != nil {
		ent.bytes = c.size(val)
	}
	c.entries[key] = c.order.PushFront(ent)
	c.bytes += ent.bytes
	for len(c.entries) > c.cap {
		back := c.order.Back()
		old := back.Value.(*lruEntry[V])
		c.order.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
	}
	return c.bytes
}

// len reports the number of cached entries.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
