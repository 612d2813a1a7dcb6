package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/telemetry"
)

// workload is one input set of the benchmark; BENCHMARK.json and README.md
// say why each was chosen.
type workload struct {
	name string
	run  func(o *options) (*outcome, error)
	// jobs, when not nil, counts the jobs of one pass, and an untraced run
	// starts a fresh child process for every job, the way the command line
	// runs one verification per process. Identical work ran up to 45% slower
	// in one process than in the next on a shared 2-vCPU host, so a run
	// pooled from many processes reads steadier than one process measuring
	// longer.
	jobs func() int
}

// workloads lists every workload in the order a full invocation runs them.
var workloads = []workload{
	{"corpus-cold", runCorpusCold, func() int { return len(coldSpecs()) }},
	{"hybrid-rescue", runHybridRescue, func() int { return len(corpus.HybridSet()) }},
	{"service-fanout", runServiceFanout, nil},
	{"symex-frontier", runSymexFrontier, func() int { return len(corpus.SymexBench()) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options parameterize one workload run.
type options struct {
	seed    int64
	seconds time.Duration
	// trace selects the per-layer run: passes alternate untraced and traced,
	// spans and counters are harvested from the traced ones.
	trace bool
	// short runs one pass (two when traced), one set-up and 1 s load windows.
	short bool
	// job, when positive, runs one set-up and then only that job, numbered
	// from 1 in the workload's job list: the child-process side of
	// workload.jobs.
	job int
	// truth, when non-nil, replaces the expected verdicts derived from the
	// corpus table.
	truth truthTable
	rec   *recorder
}

// timeUp is the stop rule of the sweep workloads: the measured window is
// spent (or one pass ran, in a short run).
func (o *options) timeUp(_ int, elapsed time.Duration) bool {
	return o.short || elapsed >= o.seconds
}

// samples are the raw measurements of a run, the part a one-job child
// process hands its parent (see runJobPerProcess).
type samples struct {
	// Setup holds each set-up repetition; Passes each untraced pass's wall
	// time.
	Setup  []time.Duration `json:"setup"`
	Passes []time.Duration `json:"passes"`
	// Jobs holds each job kind's untraced times to verdict, on
	// service-fanout counted from each open-loop request's due time.
	Jobs map[string][]time.Duration `json:"jobs"`
	// PerPass is the number of jobs in one pass.
	PerPass int `json:"per_pass"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures"`
}

// merge pools another run's samples into s.
func (s *samples) merge(o samples) {
	s.Setup = append(s.Setup, o.Setup...)
	s.Passes = append(s.Passes, o.Passes...)
	for kind, ds := range o.Jobs {
		s.Jobs[kind] = append(s.Jobs[kind], ds...)
	}
	s.PerPass = o.PerPass
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	s.Failures = append(s.Failures, o.Failures...)
}

// outcome collects the measurements of one workload run.
type outcome struct {
	samples
	// latency holds every job's time to verdict, as Jobs does per kind.
	latency      []time.Duration
	tracedPasses []time.Duration
	// layers holds per-layer metrics of a traced run.
	layers map[string]float64
	// allocMB and gcCycles are per untraced pass, traced runs only.
	allocMB  []float64
	gcCycles []float64
	// forcedGC counts the collections the benchmark itself started.
	forcedGC uint32
}

// collect runs a garbage collection outside any timed interval, so every
// job starts from a collected heap the way a fresh octopocs process does,
// instead of paying for the garbage of the job before it.
func (out *outcome) collect() {
	runtime.GC()
	out.forcedGC++
}

func newOutcome() *outcome {
	return &outcome{samples: samples{Jobs: make(map[string][]time.Duration)}, layers: make(map[string]float64)}
}

// check counts one attempted operation and records msg as a failure unless
// it is empty.
func (out *outcome) check(msg string) {
	out.Attempted++
	if msg != "" {
		out.Failed++
		if len(out.Failures) < 20 {
			out.Failures = append(out.Failures, msg)
		}
	}
}

// measureSetup runs setup reps times (once in a short run) and returns each
// duration; setup_s is their median. Each repetition starts from a collected
// heap. teardown, when not nil, undoes a repetition before the next one and
// is not timed.
func measureSetup(o *options, reps int, setup, teardown func() error) ([]time.Duration, error) {
	if o.short {
		reps = 1
	}
	var ds []time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
		if len(ds) >= reps {
			return ds, nil
		}
		if teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
	}
}

// passLoop runs passes until done(passes run, time spent) holds, never
// stopping inside a pass. A traced run alternates untraced and traced
// passes, starting untraced, so the tracing overhead is measured inside one
// process, and runs at least one of each.
func passLoop(o *options, out *outcome, done func(n int, elapsed time.Duration) bool, pass func(traced bool) (time.Duration, error)) error {
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		var m0, m1 runtime.MemStats
		forced := out.forcedGC
		if o.trace && !traced {
			runtime.ReadMemStats(&m0)
		}
		d, err := pass(traced)
		if err != nil {
			return err
		}
		if traced {
			out.tracedPasses = append(out.tracedPasses, d)
		} else {
			out.Passes = append(out.Passes, d)
			if o.trace {
				runtime.ReadMemStats(&m1)
				out.allocMB = append(out.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
				out.gcCycles = append(out.gcCycles, float64(m1.NumGC-m0.NumGC-(out.forcedGC-forced)))
			}
		}
		if i+1 >= minPasses && (o.job > 0 || done(i+1, time.Since(start))) {
			return nil
		}
	}
}

// passOrder is the seeded job order of every pass of a sweep workload: one
// permutation of n jobs per pass, drawn from a stream that only the seed
// determines.
type passOrder struct{ rng *rand.Rand }

func newPassOrder(seed int64, workload string) *passOrder {
	h := int64(0)
	for _, c := range workload {
		h = h*31 + int64(c)
	}
	return &passOrder{rng: rand.New(rand.NewSource(seed ^ h))}
}

func (p *passOrder) next(n int) []int { return p.rng.Perm(n) }

// nextPass returns the job indexes of the next pass of a sweep workload
// with n jobs: the seeded permutation, or in a one-job process that job.
func (o *options) nextPass(p *passOrder, n int) ([]int, error) {
	switch {
	case o.job > n:
		return nil, fmt.Errorf("job %d of %d", o.job, n)
	case o.job > 0:
		return []int{o.job - 1}, nil
	}
	return p.next(n), nil
}

// coldSpecs are every corpus pair: Table II, the static set and the hybrid
// set.
func coldSpecs() []*corpus.PairSpec {
	return append(append(corpus.All(), corpus.StaticSet()...), corpus.HybridSet()...)
}

func runCorpusCold(o *options) (*outcome, error) {
	return runPipeline(o, "corpus-cold", coldSpecs, core.Config{}, false)
}

func runHybridRescue(o *options) (*outcome, error) {
	return runPipeline(o, "hybrid-rescue", corpus.HybridSet,
		core.Config{StaticPrune: true, Absint: true, HybridFuzz: true}, true)
}

// pipelineJob is one finished verification of a pass.
type pipelineJob struct {
	spec  *corpus.PairSpec
	rep   *core.Report
	err   error
	trace int
}

// runPipeline sweeps the given corpus pairs, each verification on a fresh
// core.New(cfg) so that nothing is shared between jobs, and checks every
// verdict against the corpus table.
func runPipeline(o *options, name string, specsFn func() []*corpus.PairSpec, cfg core.Config, hybrid bool) (*outcome, error) {
	out := newOutcome()
	var specs []*corpus.PairSpec
	var truth truthTable
	var err error
	out.Setup, err = measureSetup(o, 1, func() error {
		specs = specsFn()
		truth = groundTruth(specs, hybrid)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if o.truth != nil {
		truth = o.truth
	}
	reg := telemetry.NewRegistry()
	met := core.NewMetrics(reg)
	out.PerPass = len(specs)
	order := newPassOrder(o.seed, name)
	var tracedJobs int
	var phases [5]time.Duration // p1, p2 prep, reform, p4, hybrid (traced jobs)
	var proved, passExecs, totalExecs int64
	var campaign time.Duration
	err = passLoop(o, out, o.timeUp, func(traced bool) (time.Duration, error) {
		idx, err := o.nextPass(order, len(specs))
		if err != nil {
			return 0, err
		}
		done := make([]pipelineJob, 0, len(idx))
		var wall time.Duration
		for _, i := range idx {
			spec := specs[i]
			out.collect()
			c := cfg
			ctx := context.Background()
			job := pipelineJob{spec: spec, trace: -1}
			var tr *telemetry.Trace
			call := -1
			if traced {
				c.Metrics = met
				tr = telemetry.NewTraceWithCapacity(spec.Pair.Name, "verify", 1<<20)
				ctx = telemetry.WithTrace(ctx, tr)
				job.trace = o.rec.newTrace()
				call = o.rec.begin(job.trace, -1, "core.VerifyContext")
			}
			j0 := time.Now()
			job.rep, job.err = core.New(c).VerifyContext(ctx, spec.Pair)
			d := time.Since(j0)
			wall += d
			if traced {
				o.rec.end(call)
				o.rec.graft(job.trace, call, tr.Snapshot())
			} else {
				kind := fmt.Sprintf("%02d", spec.Idx)
				out.Jobs[kind] = append(out.Jobs[kind], d)
				out.latency = append(out.latency, d)
			}
			done = append(done, job)
		}

		var execs int64
		for _, job := range done {
			if job.err != nil {
				out.check(fmt.Sprintf("row %d: %v", job.spec.Idx, job.err))
				continue
			}
			sp := -1
			if traced {
				sp = o.rec.begin(job.trace, -1, "replay")
			}
			out.check(truth.verifyReport(job.spec.Idx, job.spec.Pair, job.rep))
			o.rec.end(sp)
			if job.rep.Hybrid != nil {
				execs += job.rep.Hybrid.Execs
				campaign += job.rep.Timings.Hybrid
			}
			if traced {
				tracedJobs++
				t := job.rep.Timings
				for k, d := range [5]time.Duration{t.P1, t.P2Prep, t.Reform, t.P4, t.Hybrid} {
					phases[k] += d
				}
				if job.rep.Absint != nil {
					proved += int64(job.rep.Absint.ProvedBranches)
				}
			}
		}
		passExecs = execs
		totalExecs += execs
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	if o.trace {
		perJob := func(v float64) float64 { return v / float64(max(tracedJobs, 1)) }
		for k, name := range [5]string{"core.p1_ms", "core.p2_prep_ms", "core.reform_ms", "core.p4_ms", "core.hybrid_ms"} {
			out.layers[name] = perJob(ms(phases[k]))
		}
		out.layers["absint.proved_branches"] = perJob(float64(proved))
		out.layers["hybrid.execs"] = float64(passExecs)
		if campaign > 0 {
			out.layers["hybrid.execs_per_s"] = float64(totalExecs) / campaign.Seconds()
		}
		if passExecs > 0 && len(out.allocMB) > 0 {
			out.layers["go.alloc_bytes_per_exec"] = median(out.allocMB) * (1 << 20) / float64(passExecs)
		}
		engineCounters(out, nil, registryCounters(reg), tracedJobs)
		for _, spec := range specs {
			out.layers[fmt.Sprintf("pair.%02d.ms", spec.Idx)] = median(msAll(out.Jobs[fmt.Sprintf("%02d", spec.Idx)]))
		}
	}
	return out, nil
}

// engineCounterNames maps the program's engine counter families onto layer
// metrics.
var engineCounterNames = map[string]string{
	"octopocs_symex_states_total":            "symex.states",
	"octopocs_symex_steps_total":             "symex.steps",
	"octopocs_symex_sat_checks_total":        "symex.sat_checks",
	"octopocs_symex_frontier_steals_total":   "symex.steals",
	"octopocs_solver_solves_total":           "solver.solves",
	"octopocs_solver_unsat_total":            "solver.unsat",
	"octopocs_solver_budget_exhausted_total": "solver.budget_exhausted",
	"octopocs_vm_runs_total":                 "vm.runs",
	"octopocs_vm_instructions_total":         "vm.instructions",
}

// parseExposition reads the unlabeled series of a Prometheus text
// exposition, the format of the program's /metrics.
func parseExposition(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// registryCounters snapshots an in-process registry.
func registryCounters(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WriteText(&buf) // a bytes.Buffer write cannot fail
	return parseExposition(&buf)
}

// engineCounters records the counter growth between two snapshots, per job;
// the frontier peak is a gauge and is taken as it stands.
func engineCounters(out *outcome, before, after map[string]float64, jobs int) {
	if jobs == 0 {
		return
	}
	for family, name := range engineCounterNames {
		out.layers[name] = (after[family] - before[family]) / float64(jobs)
	}
	out.layers["symex.frontier_peak"] = after["octopocs_symex_frontier_peak_nodes"]
	hits := after["octopocs_solver_sat_cache_hits_total"] - before["octopocs_solver_sat_cache_hits_total"]
	misses := after["octopocs_solver_sat_cache_misses_total"] - before["octopocs_solver_sat_cache_misses_total"]
	out.layers["solver.sat_cache_lookups"] = (hits + misses) / float64(jobs)
	if hits+misses > 0 {
		out.layers["solver.sat_cache_hit_ratio"] = hits / (hits + misses)
	}
}
