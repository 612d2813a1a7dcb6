package service_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"octopocs/internal/asm"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/isa"
	"octopocs/internal/service"
	"octopocs/internal/testutil"
)

// crashingS builds a tiny S: main checks a two-byte magic, then the shared
// reader copies a length-prefixed record into a 4-byte buffer — the poc's
// oversized length overflows it.
func crashingS() *isa.Program {
	b := asm.NewBuilder("slow-s")
	g := b.Function("reader", 1)
	fd := g.Param(0)
	buf := g.Sys(isa.SysAlloc, g.Const(4))
	lb := g.Sys(isa.SysAlloc, g.Const(1))
	g.Sys(isa.SysRead, fd, lb, g.Const(1))
	g.Sys(isa.SysRead, fd, buf, g.Load(1, lb, 0))
	g.RetI(0)
	f := b.Function("main", 0)
	fd2 := f.Sys(isa.SysOpen)
	mb := f.Sys(isa.SysAlloc, f.Const(2))
	f.Sys(isa.SysRead, fd2, mb, f.Const(2))
	f.If(f.NeI(f.Load(1, mb, 0), 'Z'), func() { f.Exit(1) })
	f.If(f.NeI(f.Load(1, mb, 1), 'Z'), func() { f.Exit(1) })
	f.Call("reader", fd2)
	f.Exit(0)
	b.Entry("main")
	return b.MustBuild()
}

// slowPair pairs the fast-crashing S with a T whose main spins in an
// endless counting loop before (nominally) reaching the shared reader, so
// P2's symbolic execution grinds until the instruction budget — effectively
// forever with the budget below — unless cancelled.
func slowPair() *core.Pair {
	b := asm.NewBuilder("slow-t")
	g := b.Function("reader", 1)
	fd := g.Param(0)
	buf := g.Sys(isa.SysAlloc, g.Const(4))
	lb := g.Sys(isa.SysAlloc, g.Const(1))
	g.Sys(isa.SysRead, fd, lb, g.Const(1))
	g.Sys(isa.SysRead, fd, buf, g.Load(1, lb, 0))
	g.RetI(0)
	f := b.Function("main", 0)
	fd2 := f.Sys(isa.SysOpen)
	n := f.VarI(0)
	f.Forever(func() { f.Assign(n, f.AddI(n, 1)) })
	f.Call("reader", fd2)
	f.Exit(0)
	b.Entry("main")
	return &core.Pair{
		Name:     "slow",
		S:        crashingS(),
		T:        b.MustBuild(),
		PoC:      append([]byte("ZZ"), 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
		Lib:      map[string]bool{"reader": true},
		MaxSteps: 1 << 40,
	}
}

// waitRunning blocks until the job leaves the queue.
func waitRunning(t *testing.T, j *service.Job) {
	t.Helper()
	testutil.WaitFor(t, func() bool { return j.State() != service.JobQueued },
		10*time.Second, "job %s still queued", j.ID())
}

func TestSubmitWaitMatchesDirectVerify(t *testing.T) {
	// Pin the per-job frontier budget to the library default's one explorer
	// so the service report is field-for-field comparable with a direct
	// pipeline: the frontier engine's Report is deterministic for any worker
	// count, but its Stats (steps, steals) legitimately vary with scheduling.
	svc := service.New(service.Config{Workers: 2, Pipeline: core.Config{SymexWorkers: 1}, CacheEntries: -1})
	defer svc.Shutdown(context.Background())

	for _, spec := range corpus.All() {
		idx := spec.Idx
		want, err := core.New(core.Config{}).Verify(spec.Pair)
		if err != nil {
			t.Fatalf("direct verify idx %d: %v", idx, err)
		}
		job, err := svc.Submit(spec.Pair)
		if err != nil {
			t.Fatalf("submit idx %d: %v", idx, err)
		}
		got, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("wait idx %d: %v", idx, err)
		}
		want.Timings, got.Timings = core.PhaseTimings{}, core.PhaseTimings{}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("idx %d: service report diverged from direct verify\n got %+v\nwant %+v", idx, got, want)
		}
	}
}

// TestNegativeSymexWorkersRunsOneExplorer pins the negative-budget mapping:
// Pipeline.SymexWorkers < 0 selects one frontier explorer per job.
func TestNegativeSymexWorkersRunsOneExplorer(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Pipeline: core.Config{SymexWorkers: -1}, CacheEntries: -1})
	defer svc.Shutdown(context.Background())
	job, err := svc.Submit(corpus.ByIdx(7).Pair)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if rep.Stats.Workers != 1 {
		t.Errorf("Stats.Workers = %d, want 1", rep.Stats.Workers)
	}
}

// TestCacheHitByteIdenticalReports verifies, for every corpus pair, that a
// warm (cache-hit) run reproduces the cold run's report exactly — cached
// artifacts are pure functions of their inputs — and that the reuse is
// observable in both the per-job flags and the service counters.
func TestCacheHitByteIdenticalReports(t *testing.T) {
	svc := service.New(service.Config{Workers: 4})
	defer svc.Shutdown(context.Background())

	run := func() map[int]*core.Report {
		t.Helper()
		jobs := make(map[int]*service.Job)
		for _, spec := range corpus.All() {
			job, err := svc.Submit(spec.Pair)
			if err != nil {
				t.Fatalf("submit idx %d: %v", spec.Idx, err)
			}
			jobs[spec.Idx] = job
		}
		reps := make(map[int]*core.Report)
		for idx, job := range jobs {
			rep, err := job.Wait(context.Background())
			if err != nil {
				t.Fatalf("idx %d: %v", idx, err)
			}
			reps[idx] = rep
		}
		return reps
	}

	cold := run()
	warm := run()

	for _, spec := range corpus.All() {
		c, w := cold[spec.Idx], warm[spec.Idx]
		if !w.Timings.P1Cached || !w.Timings.P2Cached {
			t.Errorf("idx %d: warm run not served from cache (p1=%v p2=%v)",
				spec.Idx, w.Timings.P1Cached, w.Timings.P2Cached)
		}
		cc, ww := *c, *w
		cc.Timings, ww.Timings = core.PhaseTimings{}, core.PhaseTimings{}
		if !reflect.DeepEqual(&cc, &ww) {
			t.Errorf("idx %d: warm report differs from cold\ncold %+v\nwarm %+v", spec.Idx, cc, ww)
		}
	}

	st := svc.Stats()
	if st.P1Cache == nil || st.P2Cache == nil {
		t.Fatal("stats missing cache counters")
	}
	// The second sweep hits P1 and P2 for all 15 pairs; the first sweep
	// already reuses artifacts across pairs sharing S or T programs.
	if st.P1Cache.Hits < 15 {
		t.Errorf("P1 cache hits = %d, want >= 15", st.P1Cache.Hits)
	}
	if st.P2Cache.Hits < 15 {
		t.Errorf("P2 cache hits = %d, want >= 15", st.P2Cache.Hits)
	}
	if st.Completed != 30 {
		t.Errorf("completed = %d, want 30", st.Completed)
	}
}

// TestCancelMidP2 checks that cancelling a job stuck in symbolic execution
// returns promptly with a context error and leaves no goroutines behind.
func TestCancelMidP2(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)

	svc := service.New(service.Config{Workers: 2})
	job, err := svc.Submit(slowPair())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, job)
	// Give the pipeline time to get deep into P2's symbolic execution.
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	job.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = job.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("cancellation took %v, want prompt return", d)
	}
	if st := job.State(); st != service.JobCancelled {
		t.Errorf("state = %v, want cancelled", st)
	}

	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// CheckGoroutineLeaks verifies the workers exited once the test returns.
}

func TestJobTimeout(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, JobTimeout: 150 * time.Millisecond})
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(slowPair())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = job.Wait(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job returned %v, want context.DeadlineExceeded", err)
	}
	if st := job.State(); st != service.JobCancelled {
		t.Errorf("state = %v, want cancelled", st)
	}
}

// TestQueueFullRejects checks that a submission over capacity is rejected
// immediately rather than blocking the caller.
func TestQueueFullRejects(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 1})
	defer svc.Shutdown(context.Background())

	running, err := svc.Submit(slowPair())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, running)

	queued, err := svc.Submit(slowPair())
	if err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}

	start := time.Now()
	_, err = svc.Submit(slowPair())
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("third submit returned %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v, want immediate", d)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Rejected)
	}

	running.Cancel()
	queued.Cancel()
}

func TestShutdownDrainsInFlight(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	var jobs []*service.Job
	for _, idx := range []int{1, 2, 9} {
		job, err := svc.Submit(corpus.ByIdx(idx).Pair)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, job := range jobs {
		if st := job.State(); st != service.JobDone {
			t.Errorf("job %s after drain: state %v, want done", job.ID(), st)
		}
	}
	if _, err := svc.Submit(corpus.ByIdx(1).Pair); !errors.Is(err, service.ErrShutdown) {
		t.Errorf("submit after shutdown returned %v, want ErrShutdown", err)
	}
}

func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	job, err := svc.Submit(slowPair())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, job)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown returned %v, want DeadlineExceeded", err)
	}
	// Shutdown only returns after the workers observed the cancellation.
	if st := job.State(); st != service.JobCancelled {
		t.Errorf("job state after forced shutdown = %v, want cancelled", st)
	}
}
