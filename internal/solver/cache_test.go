package solver

import (
	"maps"
	"math/rand"
	"sync"
	"testing"

	"octopocs/internal/expr"
)

// randConstraintSet builds a deterministic pseudo-random constraint set
// over a handful of byte symbols. Roughly half the generated sets are
// satisfiable.
func randConstraintSet(rng *rand.Rand) []*expr.Expr {
	n := 2 + rng.Intn(5)
	cs := make([]*expr.Expr, 0, n)
	for i := 0; i < n; i++ {
		a := expr.Sym(rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			cs = append(cs, expr.Bin(expr.OpEq, a, expr.Const(uint64(rng.Intn(256)))))
		case 1:
			cs = append(cs, expr.Bin(expr.OpLt, a, expr.Const(uint64(1+rng.Intn(255)))))
		case 2:
			b := expr.Sym(rng.Intn(4))
			cs = append(cs, expr.Bin(expr.OpNe, expr.Bin(expr.OpAdd, a, b), expr.Const(uint64(rng.Intn(512)))))
		default:
			b := expr.Sym(rng.Intn(4))
			cs = append(cs, expr.Bin(expr.OpEq,
				expr.Bin(expr.OpAnd, expr.Bin(expr.OpMul, a, expr.Const(17)), expr.Const(63)),
				expr.Bin(expr.OpAnd, b, expr.Const(63))))
		}
	}
	return cs
}

func shuffled(rng *rand.Rand, cs []*expr.Expr) []*expr.Expr {
	out := append([]*expr.Expr(nil), cs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestSatKeyCanonical: the cache key must be insensitive to constraint
// order and duplication — the canonicalization the soundness argument
// rests on.
func TestSatKeyCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cs := randConstraintSet(rng)
		key := SatKey(cs)
		for p := 0; p < 5; p++ {
			perm := shuffled(rng, cs)
			if got := SatKey(perm); got != key {
				t.Fatalf("trial %d: permuted key %v != %v", trial, got, key)
			}
		}
		dup := append(append([]*expr.Expr(nil), cs...), cs[rng.Intn(len(cs))])
		if got := SatKey(dup); got != key {
			t.Fatalf("trial %d: duplicated key %v != %v", trial, got, key)
		}
	}
}

// TestSatKeyDistinguishes: structurally different sets should (for these
// simple generators) get different keys.
func TestSatKeyDistinguishes(t *testing.T) {
	a := []*expr.Expr{expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(1))}
	b := []*expr.Expr{expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(2))}
	c := []*expr.Expr{expr.Bin(expr.OpEq, expr.Sym(1), expr.Const(1))}
	if SatKey(a) == SatKey(b) || SatKey(a) == SatKey(c) || SatKey(b) == SatKey(c) {
		t.Fatalf("distinct constraint sets share a key: %v %v %v", SatKey(a), SatKey(b), SatKey(c))
	}
}

// TestCachedVerdictMatchesFresh: for randomized constraint sets checked in
// randomized permutation order, a cache-backed solver must return exactly
// the verdict a fresh solver returns.
func TestCachedVerdictMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cached := Solver{Cache: NewCache(256)}
	fresh := Solver{}
	sets := make([][]*expr.Expr, 60)
	for i := range sets {
		sets[i] = randConstraintSet(rng)
	}
	// Check every set several times in shuffled forms: later rounds hit
	// the cache and must agree with the fresh verdict each time.
	for round := 0; round < 3; round++ {
		for i, cs := range sets {
			perm := shuffled(rng, cs)
			want, err1 := fresh.Sat(cs)
			got, err2 := cached.Sat(perm)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("set %d round %d: error mismatch: fresh=%v cached=%v", i, round, err1, err2)
			}
			if err1 == nil && got != want {
				t.Fatalf("set %d round %d: cached verdict %v != fresh %v", i, round, got, want)
			}
		}
	}
	st := cached.Cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits after repeated rounds, got %+v", st)
	}
	if st.Entries == 0 {
		t.Fatalf("expected cached entries, got %+v", st)
	}
}

// TestCacheNeverStoresBudget: budget exhaustion must not be memoized — a
// later call with a bigger budget has to be able to reach a verdict.
func TestCacheNeverStoresBudget(t *testing.T) {
	// A three-symbol constraint with wide support forces search work past
	// a tiny budget.
	cs := []*expr.Expr{
		expr.Bin(expr.OpEq,
			expr.Bin(expr.OpAdd, expr.Bin(expr.OpAdd, expr.Sym(0), expr.Sym(1)), expr.Sym(2)),
			expr.Const(511)),
		expr.Bin(expr.OpNe, expr.Bin(expr.OpMul, expr.Sym(0), expr.Sym(1)), expr.Const(6)),
	}
	cache := NewCache(16)
	tiny := Solver{Budget: 4, Cache: cache}
	if _, err := tiny.Sat(cs); err == nil {
		t.Fatal("tiny budget unexpectedly reached a verdict")
	}
	big := Solver{Cache: cache}
	sat, err := big.Sat(cs)
	if err != nil {
		t.Fatalf("full-budget Sat errored: %v", err)
	}
	want, _ := (&Solver{}).Sat(cs)
	if sat != want {
		t.Fatalf("verdict after budget failure: got %v want %v", sat, want)
	}
}

// TestCacheLRUBounded: the cache must not grow past its capacity.
func TestCacheLRUBounded(t *testing.T) {
	cache := NewCache(32)
	s := Solver{Cache: cache}
	for i := 0; i < 500; i++ {
		cs := []*expr.Expr{expr.Bin(expr.OpEq, expr.Sym(i%8), expr.Const(uint64(i)))}
		if _, err := s.Sat(cs); err != nil {
			t.Fatalf("sat %d: %v", i, err)
		}
	}
	st := cache.Stats()
	// Capacity is split across shards with ceiling division, so allow the
	// rounded-up total.
	if st.Entries > 48 {
		t.Fatalf("cache exceeded capacity: %d entries", st.Entries)
	}
	if n := cache.filter.len(); n == 0 || n > 48 {
		t.Fatalf("filter memo holds %d outcomes, want 1..48", n)
	}
}

// TestCacheConcurrentReplay shares one Cache between goroutines solving
// overlapping systems, as frontier workers do: every model and error must
// match a solver without shortcuts. Run it under -race.
func TestCacheConcurrentReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := make([][]*expr.Expr, 40)
	for i := range sets {
		sets[i] = randConstraintSet(rng)
	}
	type result struct {
		m   Model
		err error
	}
	want := make([]result, len(sets))
	for i, cs := range sets {
		ref := reference(0)
		m, err := ref.Solve(cs)
		want[i] = result{m, err}
	}
	cache := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := Solver{Cache: cache}
			for round := 0; round < 3; round++ {
				for i := range sets {
					i := (i + g*7) % len(sets)
					m, err := s.Solve(sets[i])
					if errClass(err) != errClass(want[i].err) || !maps.Equal(m, want[i].m) {
						t.Errorf("set %d: Solve = %v, %v; reference %v, %v", i, m, err, want[i].m, want[i].err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestNilCache: a nil cache is a no-op sink, not a crash.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Lookup(CacheKey{1, 2}); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.Store(CacheKey{1, 2}, true)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("nil cache stats: %+v", st)
	}
}
