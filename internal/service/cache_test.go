package service_test

import (
	"fmt"
	"testing"

	"octopocs/internal/artifact"
)

// A memory-only Service (no Config.Stores) caches every artifact class and
// the journal on artifact.NewMemory(Config.CacheEntries). These tests pin the
// LRU behaviour the service relies on from that store.

func TestLRUEvictsOldest(t *testing.T) {
	c := artifact.NewMemory(2)
	c.Put("a", 1)
	c.Put("b", 2)
	// Touch a so b becomes the eviction candidate.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := artifact.NewMemory(2)
	c.Put("a", 1)
	c.Put("a", 2)
	if n := c.Len(); n != 1 {
		t.Fatalf("Len after double Put = %d, want 1", n)
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("Get(a) = %v, want 2", v)
	}
}

func TestLRUCounters(t *testing.T) {
	c := artifact.NewMemory(1)
	c.Get("missing")
	c.Put("a", 1)
	c.Get("a")
	c.Put("b", 2) // evicts a
	got := c.Counters()
	want := artifact.Counters{HotHits: 1, Misses: 1, HotEvictions: 1, HotEntries: 1}
	if got != want {
		t.Errorf("Counters = %+v, want %+v", got, want)
	}
	if c.Saturated() {
		t.Error("a store with no disk tier reports saturation")
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := artifact.NewMemory(0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); !ok {
		t.Error("capacity-clamped cache dropped its only entry")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := artifact.NewMemory(16)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("k%d", i%32)
				c.Put(key, i)
				c.Get(key)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if n := c.Len(); n > 16 {
		t.Errorf("Len = %d exceeds capacity 16", n)
	}
}
