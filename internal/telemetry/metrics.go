// Package telemetry is the dependency-free observability layer of the
// OCTOPOCS service: hand-rolled counters, gauges, and fixed-bucket
// histograms with a Prometheus text-exposition endpoint (registry.go),
// lightweight per-job trace spans kept in a bounded ring buffer (trace.go),
// and structured-logging plumbing over log/slog (log.go).
//
// Every instrument is safe on a nil receiver: a nil *Counter, *Gauge,
// *Histogram, *Trace, or *Span is a no-op sink. Disabled telemetry is
// therefore represented by nil pointers threaded through the engines, which
// keeps the pipeline hot path free of allocations and branches beyond a
// single nil check (alloc_test.go proves the zero-allocation property).
//
// Engines never touch an atomic per instruction: the VM and the symbolic
// executor aggregate into their existing local stats and flush once per run,
// so instrumented throughput matches uninstrumented throughput. The layer
// observes every phase P1–P4 (engine counters, per-phase trace spans) but
// participates in none of them.
//
// Concurrency: all instruments are safe for concurrent use — counters and
// gauges are atomics, histograms and trace rings take short internal locks —
// so one Registry serves every service worker and every frontier goroutine.
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and on a nil receiver (no-op sink).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// atomicFloat is a float64 accumulated with compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// DurationBuckets is the default histogram layout for phase and queue
// latencies, in seconds: 25 µs through half a minute, roughly exponential.
// The sub-millisecond phases (P1, absint and static average 0.2-0.35 ms on
// the corpus) land in the first buckets and a stuck
// directed-symbolic-execution run saturates the last, so one layout serves
// every phase.
var DurationBuckets = []float64{
	0.000025, 0.00005, 0.0001, 0.00025,
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket histogram in the Prometheus style: bucket i
// counts observations v <= bounds[i], plus an implicit +Inf bucket. All
// methods are safe for concurrent use and on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; non-cumulative
	sum    atomicFloat
	count  atomic.Uint64
}

// NewHistogram returns a histogram over the given strictly increasing
// upper bounds. The +Inf bucket is implicit; bounds must not contain it.
// NewHistogram panics on an invalid layout (a registration-time programming
// error, not an operational condition).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("telemetry: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the inclusive upper bucket; past the end is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// snapshot returns the cumulative bucket counts (one per bound plus +Inf),
// the sum, and the total count, read without locking: each bucket is
// individually consistent, which is all the exposition format promises.
func (h *Histogram) snapshot() (cumulative []uint64, sum float64, count uint64) {
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return cumulative, h.sum.load(), h.count.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the containing bucket, the same estimate Prometheus's
// histogram_quantile computes server-side. Observations in the +Inf bucket
// clamp to the largest finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	cum, _, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i == len(h.bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		var below uint64
		if i > 0 {
			lo = h.bounds[i-1]
			below = cum[i-1]
		}
		inBucket := c - below
		if inBucket == 0 {
			return h.bounds[i]
		}
		frac := (rank - float64(below)) / float64(inBucket)
		return lo + (h.bounds[i]-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}
