package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound semantics:
// an observation exactly at a bound lands in that bound's bucket, and one
// just above spills into the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 99} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	// v<=1: {0.5, 1.0}; v<=2 adds {1.5, 2.0}; v<=4 adds {2.5, 4.0}; +Inf adds {99}.
	want := []uint64{2, 4, 6, 7}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d (full: %v)", i, cum[i], w, cum)
		}
	}
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
	wantSum := 0.5 + 1 + 1.5 + 2 + 2.5 + 4 + 99
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	// 10 observations uniformly in (0,10]: the q-quantile interpolates
	// linearly inside the first bucket.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("p50 = %v, want 5 (interpolated mid-bucket)", got)
	}
	if got := h.Quantile(1.0); math.Abs(got-10) > 1e-9 {
		t.Errorf("p100 = %v, want 10 (top of first bucket)", got)
	}

	// Add 10 observations in (20,40]: p50 stays in bucket 1, p90 moves to
	// bucket 3. rank(0.9) = 18; bucket 3 holds observations 11..20, so the
	// interpolation lands 8/10 into (20,40] = 36.
	for i := 0; i < 10; i++ {
		h.Observe(30)
	}
	if got := h.Quantile(0.9); math.Abs(got-36) > 1e-9 {
		t.Errorf("p90 = %v, want 36", got)
	}

	// +Inf observations clamp to the largest finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(1000)
	if got := h2.Quantile(0.5); got != 2 {
		t.Errorf("quantile in +Inf bucket = %v, want clamp to 2", got)
	}

	// Empty histogram.
	if got := NewHistogram([]float64{1}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestDurationBucketsResolveSubMillisecond: on the default layout, 100
// observations of 0.2 ms, the corpus's fastest phases, give a p50 and a p99
// within [0.1, 0.25] ms, the bucket that holds them. A first bucket of
// (0, 0.5] ms would put the p99 at 0.495 ms.
func TestDurationBucketsResolveSubMillisecond(t *testing.T) {
	h := NewHistogram(DurationBuckets)
	for i := 0; i < 100; i++ {
		h.ObserveDuration(200 * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := h.Quantile(q); got < 0.0001 || got > 0.00025 {
			t.Errorf("q%v = %v s, want within [0.1, 0.25] ms", q, got)
		}
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(DurationBuckets)
	h.ObserveDuration(50 * time.Millisecond)
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if got := h.Sum(); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("sum = %v, want 0.05", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3})
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g % 4))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{
		{},
		{1, 1},
		{2, 1},
		{1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", nil)
	b := r.Counter("x_total", "help", nil)
	if a != b {
		t.Fatalf("re-registering the same counter returned a different instance")
	}
	h1 := r.Histogram("h_seconds", "help", Labels{"phase": "p1"}, []float64{1})
	h2 := r.Histogram("h_seconds", "help", Labels{"phase": "p2"}, []float64{1})
	if h1 == h2 {
		t.Fatalf("distinct label sets share an instance")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("kind clash did not panic")
			}
		}()
		r.Gauge("x_total", "help", nil)
	}()
}

func TestNilRegistryReturnsNilInstruments(t *testing.T) {
	var r *Registry
	if c := r.Counter("a", "b", nil); c != nil {
		t.Errorf("nil registry returned non-nil counter")
	}
	if g := r.Gauge("a", "b", nil); g != nil {
		t.Errorf("nil registry returned non-nil gauge")
	}
	if h := r.Histogram("a", "b", nil, nil); h != nil {
		t.Errorf("nil registry returned non-nil histogram")
	}
	r.CounterFunc("a", "b", nil, func() float64 { return 0 })
	r.GaugeFunc("a", "b", nil, func() float64 { return 0 })
	if err := r.WriteText(nil); err != nil {
		t.Errorf("nil registry WriteText: %v", err)
	}
}
