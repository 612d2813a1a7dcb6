package service

import (
	"container/list"
	"sync"
)

// CacheCounters is a point-in-time snapshot of one cache's accounting.
type CacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// LRU is a fixed-capacity, least-recently-used core.Cache with
// hit/miss/eviction accounting: the in-memory backend of every artifact
// class, and of the journal, when no persistent store is plugged in (see
// Config.Stores). A single mutex guards the whole structure: artifact
// lookups are tiny compared to the verifications they save, so
// finer-grained locking would buy nothing.
type LRU struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	hits   uint64
	misses uint64
	evicts uint64
}

type lruEntry struct {
	key string
	val any
}

// NewLRU returns an LRU holding at most max entries (minimum 1).
func NewLRU(max int) *LRU {
	if max < 1 {
		max = 1
	}
	return &LRU{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the value stored under key and marks it most recently used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put stores v under key, evicting the least recently used entry when the
// cache is full.
func (c *LRU) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
	if c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).key)
		c.evicts++
	}
}

// Len reports the number of live entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters snapshots the cache accounting.
func (c *LRU) Counters() CacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{Hits: c.hits, Misses: c.misses, Evictions: c.evicts, Entries: c.ll.Len()}
}
