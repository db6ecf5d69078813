package engine

import (
	"container/list"
	"strings"
	"sync"
)

// lruCache is a synchronized LRU map bounded by entry count and,
// optionally, by the summed byte estimate of its values. Values are
// stored as any; callers own the type discipline per cache instance.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
	// maxBytes, when positive, caps bytes, the sum of sizeOf over the
	// entries; a value larger than the whole budget is not cached.
	maxBytes int64
	sizeOf   func(any) int64
	bytes    int64
}

type lruEntry struct {
	key  string
	val  any
	size int64
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// newByteLRU is newLRU with the byte budget maxBytes on top of the
// entry cap, charging each value sizeOf(value).
func newByteLRU(capacity int, maxBytes int64, sizeOf func(any) int64) *lruCache {
	c := newLRU(capacity)
	c.maxBytes, c.sizeOf = maxBytes, sizeOf
	return c
}

// get returns the cached value and refreshes its recency.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a value, evicting least recently used
// entries while over the entry cap or the byte budget.
func (c *lruCache) put(key string, val any) {
	var size int64
	if c.maxBytes > 0 {
		size = c.sizeOf(val)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val, size: size})
	c.bytes += size
	for c.order.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.remove(c.order.Back())
	}
}

// remove drops one entry; callers hold c.mu.
func (c *lruCache) remove(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// purgePrefix removes every entry whose key starts with prefix — the
// version-scoped invalidation primitive: cache keys embed the table
// version right after their kind tag, so one prefix sweep evicts
// exactly the displaced version's entries. O(n) over the cache, which
// is bounded by cap.
func (c *lruCache) purgePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.items {
		if strings.HasPrefix(key, prefix) {
			c.remove(el)
		}
	}
}

// len reports the current number of entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size reports the summed byte estimate of the entries (0 for a cache
// without a byte budget).
func (c *lruCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
