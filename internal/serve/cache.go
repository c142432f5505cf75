package serve

import (
	"container/list"
	"sync"
)

// cache is a small mutex-guarded map bounded by entry count, with a
// TinyLFU admission filter (Einziger, Friedman & Manes, ACM TOS 2017) in
// front of LRU eviction. The server keeps two, each bounded by
// Config.CacheEntries: completed results keyed by plan fingerprint, and
// planned statements keyed by their exact SQL text.
//
// Admission: a key that misses is counted in a count-min sketch; a
// cached entry counts its own hits, so a hit hashes nothing. Once the
// cache is full, a new key is stored only if its count is greater than
// the least-recent entry's, which it then evicts: a one-off key cannot
// push out a key that is asked for again and again, as it would under
// plain LRU. Every count is halved once per 10 × capacity lookups, so a
// new hot set displaces an old one. Every size follows from the
// capacity.
//
// Both are safe for the engine's lifecycle: tables are immutable once
// registered, so a result table (never mutated after Run returns) can be
// shared by every hit, and a planned tree — which depends only on the
// catalog and Config.UniqueKeys, never on tenant, workers or memory
// budget, whose spill and positional decisions are made at run time —
// can be run again, concurrently too, since per-run state lives on the
// run's plan.Context. A cache only decides whether to recompute, so its
// policy never changes an answer.
//
// There is no singleflight: two concurrent misses on one key both
// compute the value and the first store wins. Both values are identical
// by the engine's determinism contract, so the only cost is duplicated
// work under a cold cache.
type cache[V any] struct {
	mu      sync.Mutex
	cap     int
	size    func(V) int64 // bytes an entry holds; nil counts none
	entries map[string]*list.Element
	order   list.List // front = most recent; values are *cacheEntry[V]
	bytes   int64
	sketch  []uint8 // sketchRows rows of mask+1 counters, one a byte
	mask    uint64
	lookups int // since the counts were last halved
}

type cacheEntry[V any] struct {
	key   string
	val   V
	bytes int64
	count uint8 // the key's sketch count when admitted, plus its hits since
}

const (
	sketchRows = 4
	maxCount   = 15 // every count saturates at 4 bits
)

func newCache[V any](capacity int, size func(V) int64) *cache[V] {
	width := 1
	for width < 8*capacity {
		width <<= 1
	}
	return &cache[V]{cap: capacity, size: size, entries: make(map[string]*list.Element),
		sketch: make([]uint8, sketchRows*width), mask: uint64(width - 1)}
}

// get returns the value cached under key. A hit refreshes the entry's
// recency and counts on the entry; a miss counts key in the sketch.
func (c *cache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lookups++; c.lookups >= 10*c.cap {
		c.halve()
	}
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		ent := e.Value.(*cacheEntry[V])
		ent.count = min(ent.count+1, maxCount)
		return ent.val, true
	}
	for _, i := range c.slots(key) {
		c.sketch[i] = min(c.sketch[i]+1, maxCount)
	}
	var zero V
	return zero, false
}

// put stores val under key, unless the cache is full and key has been
// asked for no more often than the least-recent entry. It returns the
// bytes the cache holds and whether val was stored (or already held).
func (c *cache[V]) put(key string, val V) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		return c.bytes, true
	}
	count := uint8(maxCount)
	for _, i := range c.slots(key) {
		count = min(count, c.sketch[i])
	}
	if len(c.entries) >= c.cap {
		back := c.order.Back()
		old := back.Value.(*cacheEntry[V])
		if count <= old.count {
			return c.bytes, false
		}
		c.order.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
	}
	ent := &cacheEntry[V]{key: key, val: val, count: count}
	if c.size != nil {
		ent.bytes = c.size(val)
	}
	c.entries[key] = c.order.PushFront(ent)
	c.bytes += ent.bytes
	return c.bytes, true
}

// slots returns key's counter in each sketch row, all mixed from one
// FNV-1a hash of the key, so the counts are the same in every process.
func (c *cache[V]) slots(key string) [sketchRows]uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h = (h ^ h>>32) * 0x9e3779b97f4a7c15 // FNV's low bits see only the bytes' low bits
	lo, step := h>>32, h|1
	var s [sketchRows]uint64
	for r := range s {
		s[r] = uint64(r)*(c.mask+1) + (lo+uint64(r)*step)&c.mask
	}
	return s
}

// halve ages every count, in the sketch and on the entries.
func (c *cache[V]) halve() {
	c.lookups = 0
	for i := range c.sketch {
		c.sketch[i] >>= 1
	}
	for _, e := range c.entries {
		e.Value.(*cacheEntry[V]).count >>= 1
	}
}

// len reports the number of cached entries.
func (c *cache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
