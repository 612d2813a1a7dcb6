// Package faultinject is the deterministic fault-injection layer behind
// the chaos test suite: named injection points threaded through the hot
// paths of every pipeline phase — the solver behind the P2 feasibility
// checks and the final P3.3 constraint solving, the P2 symbolic-execution
// workers, the core phase-artifact caches and the pre-P2 static analysis,
// and the service queue/job/HTTP layer around P1–P4 — fire faults on a
// seed-driven schedule so that retries, panic containment, and degradation
// paths are exercised reproducibly in tests and never by accident in
// production (an Injector is nil unless a schedule was explicitly parsed).
//
// Determinism. Every point keeps an atomic call counter; whether the n-th
// call fires is a pure function of (seed, point, n) — an explicit ordinal
// list or a hash-thresholded rate — so a schedule replays identically run
// over run. Under concurrency the assignment of ordinals to callers can
// vary with scheduling, but the fired set per point cannot.
//
// Classification. Each point has a Class that tells the hardened layers
// what recovery is sound: Transient faults are retried (the phases are
// pure recomputation, so a retry restores the fault-free result),
// Degraded faults fall back to a slower-but-equivalent path (cache miss,
// unpruned CFG) that provably cannot change the verdict, Fatal faults
// surface as explicit errors, and Delay faults only stall.
//
// Concurrency: an Injector is immutable after New except for its atomic
// counters, so any number of goroutines may call Fire/Err/Panic/Sleep
// concurrently; a nil *Injector is a valid never-fires instance and is the
// production configuration.
package faultinject

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"octopocs/internal/telemetry"
)

// Point names one injection site. The set is closed: ParseSchedule rejects
// unknown points so schedule typos fail fast.
type Point string

// Injection points, grouped by layer.
const (
	// SolverSat makes Solver.Sat return a transient fault before consulting
	// the cache or solving.
	SolverSat Point = "solver.sat"
	// SolverTimeout makes Solver.Solve return a transient fault, modelling
	// a solver timeout mid-phase.
	SolverTimeout Point = "solver.timeout"
	// SolverCache disables the sat-verdict cache and the filter memo for
	// one Sat call: the degraded path solves uncached, which cannot change
	// the verdict. Every Sat call made with a Cache attached draws from
	// the schedule, P2 discovery's included, so nth/count/rate ordinals
	// count discovery's checks before those of later phases.
	SolverCache Point = "solver.cache"

	// SymexWorkerPanic panics inside a frontier explorer goroutine at a
	// step-loop checkpoint; the worker's recover converts it into a
	// structured error and the phase retry restores the run.
	SymexWorkerPanic Point = "symex.worker_panic"
	// SymexFrontierStall sleeps a frontier worker at a step-loop
	// checkpoint, modelling a stalled explorer; timing-only.
	SymexFrontierStall Point = "symex.frontier_stall"
	// SymexCancel forces a cancellation mid-step: the run returns
	// ErrStopped exactly as if the Stop channel had closed.
	SymexCancel Point = "symex.cancel"

	// CoreCacheGet makes one phase-artifact cache read behave as a miss.
	CoreCacheGet Point = "core.cache_get"
	// CoreCachePut drops one phase-artifact cache write.
	CoreCachePut Point = "core.cache_put"
	// CoreStatic fails the pre-P2 static analysis; the pipeline falls back
	// to the unpruned CFG.
	CoreStatic Point = "core.static"

	// ServiceQueueFull rejects one submission as if the queue were at
	// capacity (a queue-full burst).
	ServiceQueueFull Point = "service.queue_full"
	// ServiceJobDeadline expires one job's deadline almost immediately.
	ServiceJobDeadline Point = "service.job_deadline"
	// ServiceHandlerPanic panics inside the HTTP handler chain; the
	// recovery middleware answers 500.
	ServiceHandlerPanic Point = "service.handler_panic"

	// ArtifactDiskFull fails one artifact-store disk write as if the volume
	// were out of space; the store drops the write (the hot tier still
	// serves the value) and reports saturation to admission control.
	ArtifactDiskFull Point = "artifact.disk_full"
	// ArtifactTornWrite truncates one artifact-store disk write mid-payload
	// but lets the rename complete, modelling a crash after rename but
	// before the data reached stable storage; the startup integrity scan
	// detects and drops the partial entry.
	ArtifactTornWrite Point = "artifact.torn_write"
	// ArtifactChecksum makes one artifact-store disk read behave as a
	// checksum mismatch: the entry is dropped and the read degrades to a
	// miss.
	ArtifactChecksum Point = "artifact.checksum"
)

// Points lists every known injection point in a stable order.
func Points() []Point {
	return []Point{
		SolverSat, SolverTimeout, SolverCache,
		SymexWorkerPanic, SymexFrontierStall, SymexCancel,
		CoreCacheGet, CoreCachePut, CoreStatic,
		ServiceQueueFull, ServiceJobDeadline, ServiceHandlerPanic,
		ArtifactDiskFull, ArtifactTornWrite, ArtifactChecksum,
	}
}

// Class tells the hardened layers what recovery is sound for a point.
type Class int

// Fault classes.
const (
	// ClassTransient faults are safe to retry: the failed phase is pure
	// recomputation and error paths never populate caches.
	ClassTransient Class = iota + 1
	// ClassDegraded faults fall back to a slower path that provably
	// produces the same verdict (uncached solving, unpruned CFG).
	ClassDegraded
	// ClassFatal faults surface as explicit errors or cancellations; they
	// are never retried and never silently absorbed.
	ClassFatal
	// ClassDelay faults only stall; they change timing, never results.
	ClassDelay
)

// Class returns the point's fault class; 0 for unknown points.
func (p Point) Class() Class {
	switch p {
	case SolverSat, SolverTimeout, SymexWorkerPanic:
		return ClassTransient
	case SolverCache, CoreCacheGet, CoreCachePut, CoreStatic,
		ArtifactDiskFull, ArtifactTornWrite, ArtifactChecksum:
		return ClassDegraded
	case SymexCancel, ServiceQueueFull, ServiceJobDeadline, ServiceHandlerPanic:
		return ClassFatal
	case SymexFrontierStall:
		return ClassDelay
	}
	return 0
}

// DefaultStallDelay is the sleep applied by delay-class points whose rule
// does not set one.
const DefaultStallDelay = 10 * time.Millisecond

// Fault is the error injected at a point. It travels through phase error
// chains (fmt %w wrapping preserved) so IsTransient/IsDegraded can classify
// it at the recovery site.
type Fault struct {
	Point Point
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s", f.Point)
}

// PanicError is the structured form a recovered panic takes on its way into
// a job error: the recovery site, the panic value, and the stack captured at
// recovery. When the panic value is itself an error (every injected panic
// carries a *Fault) it is exposed via Unwrap so errors.As classification
// works through the panic boundary.
type PanicError struct {
	Site  string
	Value any
	Stack []byte
}

// Recovered wraps a recover() result into a PanicError, capturing the stack.
func Recovered(site string, value any) *PanicError {
	return &PanicError{Site: site, Value: value, Stack: debug.Stack()}
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", p.Site, p.Value)
}

// Unwrap exposes an error panic value for errors.Is/As chains.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Describe extracts the injected fault carried by err (including one
// thrown as a panic and recovered): the point it fired at and its class.
// ok is false when err carries no injected fault. Observability layers use
// it to attribute retries and degradations to their injection site.
func Describe(err error) (p Point, c Class, ok bool) {
	var f *Fault
	if !errors.As(err, &f) {
		return "", 0, false
	}
	return f.Point, f.Point.Class(), true
}

// IsTransient reports whether err carries an injected fault that is safe to
// retry (including one thrown as a panic and recovered).
func IsTransient(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Point.Class() == ClassTransient
}

// IsDegraded reports whether err carries an injected fault whose sound
// recovery is a fallback path rather than a retry or a hard failure.
func IsDegraded(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Point.Class() == ClassDegraded
}

// Counters mirrors the injector's aggregate accounting into telemetry
// counter families (octopocs_faults_*). All fields are nil-tolerant.
type Counters struct {
	// Injected counts faults fired at any point.
	Injected *telemetry.Counter
	// Recovered counts panics converted into structured errors.
	Recovered *telemetry.Counter
	// Retried counts phase retries triggered by transient faults.
	Retried *telemetry.Counter
	// Degraded counts fallbacks to a degraded-but-equivalent path.
	Degraded *telemetry.Counter
}

// ruleState is one point's rule plus its atomic counters.
type ruleState struct {
	rule  Rule
	calls atomic.Uint64
	fired atomic.Uint64
}

// Injector decides, deterministically, which calls at which points fire.
// The zero of the type is never used; a nil *Injector never fires.
type Injector struct {
	seed     uint64
	rules    map[Point]*ruleState
	counters atomic.Pointer[Counters]

	injected  atomic.Uint64
	recovered atomic.Uint64
	retried   atomic.Uint64
	degraded  atomic.Uint64
}

// New builds an injector for a schedule. A nil schedule or one with no
// rules yields a nil injector (production: zero overhead, nothing fires).
func New(s *Schedule) *Injector {
	if s == nil || len(s.Rules) == 0 {
		return nil
	}
	in := &Injector{seed: s.Seed, rules: make(map[Point]*ruleState, len(s.Rules))}
	for _, r := range s.Rules {
		in.rules[r.Point] = &ruleState{rule: r}
	}
	return in
}

// SetCounters attaches telemetry mirrors for the aggregate counts. Safe to
// call on a nil injector and safe concurrently with firing.
func (in *Injector) SetCounters(c Counters) {
	if in == nil {
		return
	}
	in.counters.Store(&c)
}

// Fire consumes one call ordinal at p and reports whether the fault fires.
// Nil-safe; the nil receiver never fires.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	rs := in.rules[p]
	if rs == nil {
		return false
	}
	ord := rs.calls.Add(1)
	if !decide(&rs.rule, in.seed, ord) {
		return false
	}
	if n := rs.fired.Add(1); rs.rule.Count > 0 && n > rs.rule.Count {
		rs.fired.Add(^uint64(0)) // undo: the cap held this fault back
		return false
	}
	in.injected.Add(1)
	c := in.counters.Load()
	if c != nil {
		c.Injected.Inc()
	}
	if p.Class() == ClassDegraded {
		in.degraded.Add(1)
		if c != nil {
			c.Degraded.Inc()
		}
	}
	return true
}

// Err returns the injected *Fault when p fires, else nil.
func (in *Injector) Err(p Point) error {
	if in.Fire(p) {
		return &Fault{Point: p}
	}
	return nil
}

// Panic panics with the injected *Fault when p fires. The recovery site is
// expected to wrap the value via Recovered so the fault classifies as
// transient through the panic boundary.
func (in *Injector) Panic(p Point) {
	if in.Fire(p) {
		panic(&Fault{Point: p})
	}
}

// Sleep stalls the caller for the rule's Delay (DefaultStallDelay if unset)
// when p fires.
func (in *Injector) Sleep(p Point) {
	if in == nil || !in.Fire(p) {
		return
	}
	d := in.rules[p].rule.Delay
	if d <= 0 {
		d = DefaultStallDelay
	}
	time.Sleep(d)
}

// CountRecovered records one panic converted into a structured error.
func (in *Injector) CountRecovered() {
	if in == nil {
		return
	}
	in.recovered.Add(1)
	if c := in.counters.Load(); c != nil {
		c.Recovered.Inc()
	}
}

// CountRetried records one phase retry triggered by a transient fault.
func (in *Injector) CountRetried() {
	if in == nil {
		return
	}
	in.retried.Add(1)
	if c := in.counters.Load(); c != nil {
		c.Retried.Inc()
	}
}

// Injected returns the total faults fired.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// RecoveredCount returns the panics recovered into structured errors.
func (in *Injector) RecoveredCount() uint64 {
	if in == nil {
		return 0
	}
	return in.recovered.Load()
}

// RetriedCount returns the phase retries triggered by transient faults.
func (in *Injector) RetriedCount() uint64 {
	if in == nil {
		return 0
	}
	return in.retried.Load()
}

// DegradedCount returns the degraded-path fallbacks taken.
func (in *Injector) DegradedCount() uint64 {
	if in == nil {
		return 0
	}
	return in.degraded.Load()
}

// PointStats is the per-point accounting exposed by Stats.
type PointStats struct {
	// Calls is how many times the point was evaluated.
	Calls uint64 `json:"calls"`
	// Fired is how many of those calls injected the fault.
	Fired uint64 `json:"fired"`
}

// Stats snapshots per-point counters for scheduled points.
func (in *Injector) Stats() map[Point]PointStats {
	if in == nil {
		return nil
	}
	out := make(map[Point]PointStats, len(in.rules))
	for p, rs := range in.rules {
		out[p] = PointStats{Calls: rs.calls.Load(), Fired: rs.fired.Load()}
	}
	return out
}

// decide is the pure firing function: ordinal membership for Nth rules,
// a seed-hashed threshold for Rate rules.
func decide(r *Rule, seed, ord uint64) bool {
	if len(r.Nth) > 0 {
		for _, n := range r.Nth {
			if n == ord {
				return true
			}
		}
		return false
	}
	if r.Rate <= 0 {
		return false
	}
	if r.Rate >= 1 {
		return true
	}
	h := mix(seed ^ pointHash(r.Point) ^ ord)
	return float64(h>>11)/float64(1<<53) < r.Rate
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pointHash folds a point name into the decision hash (FNV-1a).
func pointHash(p Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}
