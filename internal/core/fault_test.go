package core_test

import (
	"sync"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/faultinject"
)

func injector(t *testing.T, schedule string) *faultinject.Injector {
	t.Helper()
	sch, err := faultinject.ParseSchedule(schedule)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", schedule, err)
	}
	return faultinject.New(sch)
}

// sameOutcome asserts the fault-free and faulted reports agree on
// everything the soundness contract covers: verdict, type, reason, and the
// exact poc' bytes. Timings legitimately differ.
func sameOutcome(t *testing.T, label string, want, got *core.Report) {
	t.Helper()
	if got.Verdict != want.Verdict || got.Type != want.Type || got.Reason != want.Reason {
		t.Errorf("%s: verdict/type/reason = %v/%v/%q, want %v/%v/%q",
			label, got.Verdict, got.Type, got.Reason, want.Verdict, want.Type, want.Reason)
	}
	if string(got.PoCPrime) != string(want.PoCPrime) {
		t.Errorf("%s: poc' differs (%d bytes vs %d)", label, len(got.PoCPrime), len(want.PoCPrime))
	}
}

// TestRetryRestoresVerdict checks transient solver faults mid-pipeline are
// retried away: the verdict and poc' are byte-identical to the fault-free
// run and the retries are accounted.
func TestRetryRestoresVerdict(t *testing.T) {
	base, err := core.New(core.Config{}).Verify(simplePair(t, "BB"))
	if err != nil {
		t.Fatal(err)
	}
	in := injector(t, "seed=5;solver.sat:nth=3|7;solver.timeout:nth=1")
	rep, err := core.New(core.Config{Faults: in}).Verify(simplePair(t, "BB"))
	if err != nil {
		t.Fatalf("faulted Verify: %v", err)
	}
	sameOutcome(t, "transient solver faults", base, rep)
	if in.RetriedCount() == 0 {
		t.Error("no retries recorded despite scheduled transient faults")
	}
}

// TestRetryExhaustionIsExplicit checks an unrecoverable transient schedule
// (every Solve fails) surfaces as a classified retryable error — never a
// silently degraded verdict.
func TestRetryExhaustionIsExplicit(t *testing.T) {
	in := injector(t, "solver.timeout:rate=1")
	p := core.New(core.Config{
		Faults: in,
		Retry:  core.RetryPolicy{Max: 2, BaseDelay: 1},
	})
	rep, err := p.Verify(simplePair(t, "BB"))
	if err == nil {
		t.Fatalf("Verify returned %+v, want error after retry exhaustion", rep)
	}
	if !faultinject.IsTransient(err) {
		t.Errorf("exhaustion error not transient-classified: %v", err)
	}
	if in.RetriedCount() != 2 {
		t.Errorf("RetriedCount = %d, want 2 (Max)", in.RetriedCount())
	}
}

// TestStaticDegradeKeepsVerdict checks an injected static-analysis failure
// falls back to the unpruned pipeline: same verdict and poc', no Static
// summary, degradation counted.
func TestStaticDegradeKeepsVerdict(t *testing.T) {
	base, err := core.New(core.Config{StaticPrune: true}).Verify(simplePair(t, "BB"))
	if err != nil {
		t.Fatal(err)
	}
	in := injector(t, "core.static:rate=1")
	rep, err := core.New(core.Config{StaticPrune: true, Faults: in}).Verify(simplePair(t, "BB"))
	if err != nil {
		t.Fatalf("degraded Verify: %v", err)
	}
	sameOutcome(t, "static degrade", base, rep)
	if rep.Static != nil {
		t.Error("degraded run still reports a static summary")
	}
	if in.DegradedCount() == 0 {
		t.Error("degradation not counted")
	}
}

// mapStore is a minimal concurrency-safe Cache for the degradation tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string]any
}

func newMapStore() *mapStore { return &mapStore{m: map[string]any{}} }

func (s *mapStore) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = v
}

// TestCacheFaultsDegradeToRecompute checks injected artifact-cache faults
// only cost recomputation: dropped writes and missed reads leave every run
// equal to the fault-free one.
func TestCacheFaultsDegradeToRecompute(t *testing.T) {
	base, err := core.New(core.Config{}).Verify(simplePair(t, "BB"))
	if err != nil {
		t.Fatal(err)
	}
	in := injector(t, "core.cache_get:rate=1;core.cache_put:rate=1")
	p := core.New(core.Config{Faults: in})
	p.SetCaches(map[string]core.Cache{core.ClassP1: newMapStore(), core.ClassP2: newMapStore()})
	for i := 0; i < 2; i++ {
		rep, err := p.Verify(simplePair(t, "BB"))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		sameOutcome(t, "cache faults", base, rep)
		if rep.Timings.P1Cached || rep.Timings.P2Cached {
			t.Errorf("run %d reported a cache hit under full cache-fault injection", i)
		}
	}
	if in.DegradedCount() == 0 {
		t.Error("cache degradations not counted")
	}
}

// TestNthOrdinalsSurviveRetry checks retry soundness end to end: a single
// nth-based fault fires once, the retry re-runs the phase with fresh
// ordinals past the consumed one, and the final report is fault-free.
func TestNthOrdinalsSurviveRetry(t *testing.T) {
	base, err := core.New(core.Config{}).Verify(simplePair(t, "BB"))
	if err != nil {
		t.Fatal(err)
	}
	in := injector(t, "solver.sat:nth=1")
	rep, err := core.New(core.Config{Faults: in}).Verify(simplePair(t, "BB"))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	sameOutcome(t, "nth retry", base, rep)
	st := in.Stats()[faultinject.SolverSat]
	if st.Fired != 1 {
		t.Errorf("solver.sat fired %d times, want exactly 1", st.Fired)
	}
}
