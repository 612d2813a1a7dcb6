package solver

import (
	"container/list"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"octopocs/internal/expr"
)

// DefaultCacheEntries is the default satisfiability-cache capacity; sized
// for the constraint-set churn of one corpus-wide verification sweep.
const DefaultCacheEntries = 4096

// cacheShards is the number of independently locked cache segments. Sixteen
// keeps lock contention negligible for the worker counts the symbolic
// frontier runs (bounded by GOMAXPROCS) without wasting memory on
// per-shard bookkeeping.
const cacheShards = 16

// CacheKey is the canonical 128-bit identity of a constraint set under
// satisfiability: the per-constraint structural fingerprints, sorted and
// deduplicated, mixed through two independent 64-bit lanes. Sorting and
// deduplication are sound because Sat decides a conjunction, and
// conjunction is commutative and idempotent: reordering constraints or
// asserting one twice cannot change the verdict. The 128-bit width makes
// accidental collisions (the only kind — every expression is built by the
// executor from program text, never from attacker-chosen structures)
// vanishingly unlikely at cache-lifetime scales.
type CacheKey [2]uint64

// SatKey canonicalizes a constraint set into its cache key: the
// fingerprints are sorted with slices.Sort (path order is
// fingerprint-random, so no order can be assumed), and the distinct ones
// are folded, one whole word per step, into two lanes with distinct seeds
// and multipliers. Sets of up to satKeyStack constraints are keyed without
// allocating. Keys live only in memory, never in a persistent store, so the
// mixing may change between versions; only its set semantics are fixed.
func SatKey(constraints []*expr.Expr) CacheKey {
	var stack [satKeyStack]uint64
	fps := stack[:0]
	if len(constraints) > len(stack) {
		fps = make([]uint64, 0, len(constraints))
	}
	for _, c := range constraints {
		fps = append(fps, c.Fingerprint())
	}
	slices.Sort(fps)
	const (
		mulA  = 0x9e3779b97f4a7c15
		mulB  = 0xc2b2ae3d27d4eb4f
		seedA = 0xcbf29ce484222325
		seedB = 0x6c62272e07bb0142
	)
	a, b := uint64(seedA), uint64(seedB)
	for i, fp := range fps {
		if i > 0 && fp == fps[i-1] {
			continue
		}
		a = bits.RotateLeft64((a^fp)*mulA, 31)
		b = fpMixLane((b + fp) * mulB)
	}
	return CacheKey{fpMixLane(a), b}
}

// satKeyStack is how many fingerprints SatKey sorts in a stack buffer,
// about twice the mean path condition of a corpus feasibility check.
const satKeyStack = 128

// fpMixLane decorrelates the second lane from the first, and finalizes the
// first, so the two halves of the key fail independently.
func fpMixLane(x uint64) uint64 {
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	x ^= x >> 32
	return x
}

// CacheStats is a point-in-time snapshot of the cache accounting.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// HitRate returns hits / (hits + misses), or 0 when the cache is unused.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache memoizes satisfiability verdicts across Sat calls. Keys are
// canonical constraint-set identities (see CacheKey), values the definite
// verdicts: only sat/unsat results are stored, never budget exhaustion, so
// a cached answer always equals what a fresh solve within budget would
// return. Beside the verdicts, and bounded by the same capacity, it holds
// the filter-outcome memo of every solve run with it attached (memo.go),
// which only saves work and never changes an outcome. Both are sharded
// LRUs — each shard a mutex-guarded list.List plus index map, the same
// shape as the service's phase-artifact cache, split sixteen ways because
// Sat checks are issued from every frontier worker on the branch-decision
// hot path.
//
// Concurrency: safe for unrestricted concurrent use; a nil *Cache is a
// valid no-op (every lookup misses, stores are dropped).
type Cache struct {
	sat    lru[CacheKey, bool]
	filter lru[uint64, *filterOutcome]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache returns a cache holding at most entries verdicts in total
// (DefaultCacheEntries when entries <= 0), spread across the shards, and
// at most as many filter outcomes.
func NewCache(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	per := (entries + cacheShards - 1) / cacheShards
	c := &Cache{}
	c.sat.init(per)
	c.filter.init(per)
	return c
}

// Lookup returns the cached verdict for key, if present.
func (c *Cache) Lookup(key CacheKey) (sat, ok bool) {
	if c == nil {
		return false, false
	}
	sat, ok = c.sat.get(key[0], key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return sat, ok
}

// Store records a definite verdict for key, evicting the least recently
// used entry of the shard when full.
func (c *Cache) Store(key CacheKey, sat bool) {
	if c == nil {
		return
	}
	c.sat.put(key[0], key, sat)
}

// Stats snapshots the verdict accounting.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.sat.len()}
}

// lru is a sharded, mutex-guarded LRU map. The caller picks the shard by
// a hash h of the key.
type lru[K comparable, V any] struct {
	shards [cacheShards]lruShard[K, V]
}

type lruShard[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// init sizes every shard to hold per entries.
func (c *lru[K, V]) init(per int) {
	for i := range c.shards {
		c.shards[i] = lruShard[K, V]{max: per, ll: list.New(), items: make(map[K]*list.Element)}
	}
}

func (c *lru[K, V]) get(h uint64, key K) (val V, ok bool) {
	sh := &c.shards[h%cacheShards]
	sh.mu.Lock()
	el, ok := sh.items[key]
	if ok {
		sh.ll.MoveToFront(el)
		val = el.Value.(*lruEntry[K, V]).val
	}
	sh.mu.Unlock()
	return val, ok
}

// put records val under key, evicting the shard's least recently used
// entry when full.
func (c *lru[K, V]) put(h uint64, key K, val V) {
	sh := &c.shards[h%cacheShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	if sh.ll.Len() > sh.max {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.items, back.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lru[K, V]) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}
