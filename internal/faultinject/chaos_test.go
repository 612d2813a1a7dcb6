package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/faultinject"
	"octopocs/internal/service"
	"octopocs/internal/testutil"
)

// chaosCorpus is the full 17-pair set: Table II plus the statically-dead
// pairs.
func chaosCorpus() []*corpus.PairSpec {
	return append(corpus.All(), corpus.StaticSet()...)
}

// baselineReports verifies every pair fault-free with the exact pipeline
// configuration the chaos sweeps use and returns the reports keyed by
// corpus index, Timings zeroed.
func baselineReports(t *testing.T, base core.Config) map[int]*core.Report {
	t.Helper()
	base.Faults = nil
	p := core.New(base)
	out := make(map[int]*core.Report)
	for _, spec := range chaosCorpus() {
		rep, err := p.Verify(spec.Pair)
		if err != nil {
			t.Fatalf("baseline idx %d (%s): %v", spec.Idx, spec.Pair.Name, err)
		}
		rep.Timings = core.PhaseTimings{}
		out[spec.Idx] = rep
	}
	return out
}

// chaosSchedules is the deterministic sweep: each entry is one full pass of
// the 17-pair corpus through the service under the named schedule. Every
// fault here is transient or degraded, so the contract is strict: each job
// must end byte-identical to its fault-free baseline.
var chaosSchedules = []struct {
	name     string
	schedule string
	static   bool
}{
	{"solver-transients", "seed=11;solver.sat:nth=3|9|27;solver.timeout:nth=2", false},
	{"worker-panics", "seed=12;symex.worker_panic:nth=1|4", false},
	{"cache-chaos", "seed=13;solver.cache:rate=0.5;core.cache_get:rate=0.5;core.cache_put:rate=0.5", false},
	{"static-degrade", "seed=14;core.static:rate=0.4;solver.sat:nth=5", true},
	{"stalls-and-retries", "seed=15;symex.frontier_stall:nth=2|6,delay=1ms;solver.timeout:nth=3", false},
}

// TestChaosSweepDeterministicOutcomes is the tentpole chaos harness: for
// each schedule, run the whole corpus through a real Service with fault
// injection on, and assert the robustness contract — no hang past the
// deadline, no goroutine leaks, and every job's verdict/type/poc' equal to
// the fault-free baseline. Reason is compared too, except under static
// degradation where falling back to the unpruned pipeline legitimately
// rewrites ReasonStaticUnreachable into the dynamic equivalent.
func TestChaosSweepDeterministicOutcomes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)

	for _, tc := range chaosSchedules {
		t.Run(tc.name, func(t *testing.T) {
			sch, err := faultinject.ParseSchedule(tc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			in := faultinject.New(sch)
			plCfg := core.Config{StaticPrune: tc.static}
			base := baselineReports(t, plCfg)

			plCfg.Faults = in
			// One explorer per job, as in the baseline, so the schedule-
			// dependent Stats compare equal on any core count.
			svc := service.New(service.Config{
				Workers:      2,
				SymexWorkers: 1,
				QueueDepth:   4,
				Pipeline:     plCfg,
			})
			defer svc.Shutdown(context.Background())

			jobs := make(map[int]*service.Job)
			for _, spec := range chaosCorpus() {
				jobs[spec.Idx] = submitWithRetry(t, svc, spec)
			}
			deadline, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			for _, spec := range chaosCorpus() {
				rep, err := jobs[spec.Idx].Wait(deadline)
				if err != nil {
					t.Errorf("idx %d (%s): job error %v, want clean completion", spec.Idx, spec.Pair.Name, err)
					continue
				}
				rep.Timings = core.PhaseTimings{}
				want := base[spec.Idx]
				if tc.static {
					// A degraded static phase reruns the pair unpruned; only
					// the final verdict/type/poc' are contractual then.
					if rep.Verdict != want.Verdict || rep.Type != want.Type ||
						string(rep.PoCPrime) != string(want.PoCPrime) {
						t.Errorf("idx %d (%s): degraded outcome %v/%v diverged from %v/%v",
							spec.Idx, spec.Pair.Name, rep.Verdict, rep.Type, want.Verdict, want.Type)
					}
					continue
				}
				rep.Static = want.Static
				if !reflect.DeepEqual(rep, want) {
					t.Errorf("idx %d (%s): faulted report diverged\n got %+v\nwant %+v",
						spec.Idx, spec.Pair.Name, rep, want)
				}
			}
			if in.Injected() == 0 {
				t.Errorf("schedule %q never fired a fault — sweep proves nothing", tc.schedule)
			}
			if err := svc.Shutdown(context.Background()); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}

// submitWithRetry tolerates injected or real queue-full rejections by
// backing off, mirroring what a well-behaved client does.
func submitWithRetry(t *testing.T, svc *service.Service, spec *corpus.PairSpec) *service.Job {
	t.Helper()
	var job *service.Job
	testutil.WaitFor(t, func() bool {
		j, err := svc.Submit(spec.Pair)
		if errors.Is(err, service.ErrQueueFull) {
			return false
		}
		if err != nil {
			t.Fatalf("submit idx %d: %v", spec.Idx, err)
		}
		job = j
		return true
	}, time.Minute, "idx %d never left the queue-full state", spec.Idx)
	return job
}

// TestChaosFatalFaultsAreExplicit checks the other half of the contract:
// fatal-class faults never silently alter a verdict — each job ends in an
// explicit, classified error.
func TestChaosFatalFaultsAreExplicit(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)

	sch, err := faultinject.ParseSchedule("seed=21;symex.cancel:nth=1")
	if err != nil {
		t.Fatal(err)
	}
	p := core.New(core.Config{Faults: faultinject.New(sch)})
	spec := corpus.ByIdx(1)
	rep, err := p.Verify(spec.Pair)
	if err == nil {
		t.Fatalf("cancelled run returned report %+v, want explicit error", rep)
	}
	if faultinject.IsTransient(err) || faultinject.IsDegraded(err) {
		t.Errorf("fatal cancellation misclassified: %v", err)
	}
}

// TestChaosSeedReproducibility checks the harness's core promise: the same
// seed and schedule replay the same fault sequence, fire for fire.
func TestChaosSeedReproducibility(t *testing.T) {
	run := func() string {
		sch, err := faultinject.ParseSchedule("seed=33;solver.sat:rate=0.2;solver.cache:rate=0.3")
		if err != nil {
			t.Fatal(err)
		}
		in := faultinject.New(sch)
		p := core.New(core.Config{Faults: in})
		for _, spec := range corpus.All()[:5] {
			if _, err := p.Verify(spec.Pair); err != nil && !faultinject.IsTransient(err) {
				t.Fatalf("idx %d: %v", spec.Idx, err)
			}
		}
		return fmt.Sprintf("%+v", in.Stats())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical schedules diverged:\n%s\nvs\n%s", a, b)
	}
}
