package serve

import (
	"container/list"
	"sync"
)

// cacheOverhead is the per-entry bookkeeping charge added to the body and
// key sizes when accounting against the byte budget (list element, map
// slot, struct headers — a round figure, not an exact measurement).
const cacheOverhead = 128

// lruCache is a byte-budgeted LRU of marshaled /solve response bodies.
// Get and Put are safe for concurrent use. Entries larger than the whole
// budget are simply not stored.
type lruCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheItem struct {
	key  string
	body []byte
}

func newLRUCache(budget int64) *lruCache {
	return &lruCache{
		budget: budget,
		ll:     list.New(),
		items:  map[string]*list.Element{},
	}
}

func itemSize(key string, body []byte) int64 {
	return int64(len(key)) + int64(len(body)) + cacheOverhead
}

// get returns the cached body for key and bumps the entry to
// most-recently-used. The returned slice is shared and must be treated as
// read-only.
func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).body, true
}

// put stores body under key, evicting least-recently-used entries until
// the byte budget holds. Re-putting an existing key refreshes its body
// and recency.
func (c *lruCache) put(key string, body []byte) {
	size := itemSize(key, body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		it := el.Value.(*cacheItem)
		c.bytes += int64(len(body)) - int64(len(it.body))
		it.body = body
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheItem{key: key, body: body})
		c.bytes += size
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		it := back.Value.(*cacheItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= itemSize(it.key, it.body)
		c.evictions++
	}
}

// stats returns (hits, misses, evictions, residentBytes, entries).
func (c *lruCache) stats() (hits, misses, evictions uint64, bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.bytes, c.ll.Len()
}
