package corpus_test

import (
	"bytes"
	"sync"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/hybrid"
	"octopocs/internal/vm"
)

// TestHybridSetDefined checks the hybrid pairs are complete, carry their
// ground truth, and resolve through ByIdx without disturbing the Table II
// or static sets.
func TestHybridSetDefined(t *testing.T) {
	specs := corpus.HybridSet()
	if len(specs) != 4 {
		t.Fatalf("hybrid set has %d pairs, want 4", len(specs))
	}
	for i, s := range specs {
		if s.Idx != 18+i {
			t.Errorf("hybrid pair %d has Idx %d, want %d", i, s.Idx, 18+i)
		}
		if s.Pair == nil || s.Pair.S == nil || s.Pair.T == nil || len(s.Pair.PoC) == 0 {
			t.Errorf("pair %d (%s) incomplete", s.Idx, s.Label())
		}
		if s.ExpectReason != core.ReasonLoopDead && s.ExpectReason != core.ReasonBudget {
			t.Errorf("pair %d (%s) has non-hybrid ExpectReason %q", s.Idx, s.Label(), s.ExpectReason)
		}
		if !s.ExpectRescue {
			t.Errorf("pair %d (%s) is not expected to be rescued", s.Idx, s.Label())
		}
		if got := corpus.ByIdx(s.Idx); got == nil || got.Idx != s.Idx {
			t.Errorf("ByIdx(%d) = %v", s.Idx, got)
		}
	}
	// The loop-dead and budget mechanisms must both be represented.
	reasons := map[core.Reason]int{}
	for _, s := range specs {
		reasons[s.ExpectReason]++
	}
	if reasons[core.ReasonLoopDead] == 0 || reasons[core.ReasonBudget] == 0 {
		t.Errorf("hybrid set does not cover both eligible reasons: %v", reasons)
	}
}

// TestHybridPoCsCrashS checks the hybrid-set ground truth: every PoC
// crashes S inside ℓ, and none crashes T — so a rescue is always a genuine
// reform, never the original poc replayed.
func TestHybridPoCsCrashS(t *testing.T) {
	for _, s := range corpus.HybridSet() {
		t.Run(s.Label(), func(t *testing.T) {
			sOut := vm.New(s.Pair.S, vm.Config{Input: s.Pair.PoC}).Run()
			if !sOut.Crashed() || !sOut.CrashedIn(s.Pair.Lib) {
				t.Fatalf("S outcome = %v, want crash inside ℓ", sOut)
			}
			tOut := vm.New(s.Pair.T, vm.Config{Input: s.Pair.PoC}).Run()
			if tOut.Crashed() {
				t.Fatalf("T crashes on the original poc (%v); the pair needs no rescue", tOut)
			}
		})
	}
}

// TestHybridOffBaseline pins the fallback-off outcome of every hybrid pair:
// the expected symex failure (loop-dead or budget), no hybrid outcome on
// the report, and no poc'.
func TestHybridOffBaseline(t *testing.T) {
	pl := core.New(core.Config{})
	for _, s := range corpus.HybridSet() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			rep, err := pl.Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			t.Logf("off: %v", rep)
			if rep.Type != s.ExpectType {
				t.Errorf("type = %v, want %v", rep.Type, s.ExpectType)
			}
			if rep.Reason != s.ExpectReason {
				t.Errorf("reason = %q, want %q", rep.Reason, s.ExpectReason)
			}
			if rep.Verdict == core.VerdictTriggered || rep.Verdict == core.VerdictTriggeredByFuzzing {
				t.Errorf("verdict = %v, want a non-triggered symex outcome", rep.Verdict)
			}
			if rep.Hybrid != nil {
				t.Errorf("fallback-off report carries a hybrid outcome: %+v", rep.Hybrid)
			}
			if rep.PoCGenerated() {
				t.Errorf("fallback-off report carries a poc': %x", rep.PoCPrime)
			}
		})
	}
}

// TestHybridRescue is the tentpole end-to-end check: with the fallback on,
// every hybrid pair is upgraded to triggered-by-fuzzing with a
// replay-confirmed poc'. The campaign runs on one goroutine here; its
// worker-count independence is pinned where the knob lives, by
// hybrid.TestCampaignDeterministic and
// fuzz.TestCampaignDeterministicAcrossWorkers.
func TestHybridRescue(t *testing.T) {
	pl := core.New(core.Config{HybridFuzz: true})
	for _, s := range corpus.HybridSet() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			rep, err := pl.Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			t.Logf("on: %v hybrid=%+v", rep, rep.Hybrid)
			if rep.Verdict != core.VerdictTriggeredByFuzzing {
				t.Fatalf("verdict = %v, want triggered-by-fuzzing", rep.Verdict)
			}
			if rep.Type != core.TypeII {
				t.Errorf("type = %v, want Type-II (no hybrid poc equals the original)", rep.Type)
			}
			if rep.Reason != s.ExpectReason {
				t.Errorf("reason = %q, want the symex provenance %q", rep.Reason, s.ExpectReason)
			}
			if rep.Hybrid == nil || !rep.Hybrid.Rescued {
				t.Fatalf("report carries no rescued hybrid outcome: %+v", rep.Hybrid)
			}
			if !rep.PoCGenerated() {
				t.Fatal("rescued report has no poc'")
			}
			// The replay gate, re-checked independently: poc' crashes T
			// inside ℓ on the concrete VM.
			out := vm.New(s.Pair.T, vm.Config{Input: rep.PoCPrime}).Run()
			if !out.Crashed() || !out.CrashedIn(s.Pair.Lib) {
				t.Fatalf("poc' replay = %v, want crash inside ℓ", out)
			}
		})
	}
}

// TestHybridEquivalence is the fallback's do-no-harm check, mirroring
// TestStaticPruneEquivalence: every pre-existing corpus pair — the 15
// Table II rows plus the static set — must produce the same verdict, type,
// reason, and byte-identical poc' with the fallback on, and its report
// must carry no hybrid outcome (the campaign never even ran).
func TestHybridEquivalence(t *testing.T) {
	plOff := core.New(core.Config{})
	plOn := core.New(core.Config{HybridFuzz: true})
	for _, s := range append(corpus.All(), corpus.StaticSet()...) {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			repOff, err := plOff.Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify (off): %v", err)
			}
			repOn, err := plOn.Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify (on): %v", err)
			}
			if repOn.Verdict != repOff.Verdict || repOn.Type != repOff.Type || repOn.Reason != repOff.Reason {
				t.Errorf("verdicts diverge: on %v, off %v", repOn, repOff)
			}
			if !bytes.Equal(repOn.PoCPrime, repOff.PoCPrime) {
				t.Errorf("poc' differs: on %x, off %x", repOn.PoCPrime, repOff.PoCPrime)
			}
			if repOn.Hybrid != nil {
				t.Errorf("fallback ran on a non-eligible pair: %+v", repOn.Hybrid)
			}
		})
	}
}

// mapCache is a minimal concurrency-safe core.Cache for the cache tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string]any
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]any)} }

func (c *mapCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// TestHybridCacheCorruptionRejected damages a cached campaign outcome and
// checks the replay gate discards it: the second verification recomputes
// the campaign and still reports a confirmed rescue, never the corrupted
// poc'.
func TestHybridCacheCorruptionRejected(t *testing.T) {
	s := corpus.ByIdx(18)
	cache := newMapCache()
	pl := core.New(core.Config{HybridFuzz: true})
	pl.SetCaches(map[string]core.Cache{core.ClassHybrid: cache})

	rep, err := pl.Verify(s.Pair)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Verdict != core.VerdictTriggeredByFuzzing {
		t.Fatalf("verdict = %v, want triggered-by-fuzzing", rep.Verdict)
	}

	// Replace every cached outcome with a corrupted rescue whose poc' is
	// the original (non-crashing) poc.
	cache.mu.Lock()
	keys := 0
	for k := range cache.m {
		cache.m[k] = &hybrid.Outcome{
			Rescued:  true,
			PoCPrime: append([]byte(nil), s.Pair.PoC...),
		}
		keys++
	}
	cache.mu.Unlock()
	if keys == 0 {
		t.Fatal("first verification cached nothing under the hy: class")
	}

	rep2, err := pl.Verify(s.Pair)
	if err != nil {
		t.Fatalf("Verify (corrupted cache): %v", err)
	}
	if rep2.Verdict != core.VerdictTriggeredByFuzzing {
		t.Fatalf("corrupted cache flipped the verdict: %v", rep2.Verdict)
	}
	if rep2.Timings.HybridCached {
		t.Error("corrupted outcome was served from the cache")
	}
	if bytes.Equal(rep2.PoCPrime, s.Pair.PoC) {
		t.Error("corrupted poc' was reported")
	}
	out := vm.New(s.Pair.T, vm.Config{Input: rep2.PoCPrime}).Run()
	if !out.Crashed() || !out.CrashedIn(s.Pair.Lib) {
		t.Fatalf("recomputed poc' replay = %v, want crash inside ℓ", out)
	}
}

// TestHybridCacheHitRevalidated checks the healthy-cache path: a second
// verification against an intact cache reuses the outcome (HybridCached)
// after the replay gate re-confirms it.
func TestHybridCacheHitRevalidated(t *testing.T) {
	s := corpus.ByIdx(20)
	cache := newMapCache()
	pl := core.New(core.Config{HybridFuzz: true})
	pl.SetCaches(map[string]core.Cache{core.ClassHybrid: cache})

	rep, err := pl.Verify(s.Pair)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rep2, err := pl.Verify(s.Pair)
	if err != nil {
		t.Fatalf("Verify (cached): %v", err)
	}
	if !rep2.Timings.HybridCached {
		t.Error("second verification did not reuse the cached outcome")
	}
	if rep2.Verdict != rep.Verdict || !bytes.Equal(rep2.PoCPrime, rep.PoCPrime) {
		t.Errorf("cached run diverges: %v vs %v", rep2, rep)
	}
}
