package core

import (
	"time"

	"octopocs/internal/absint"
	"octopocs/internal/hybrid"
	"octopocs/internal/mirstatic"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
	"octopocs/internal/telemetry"
	"octopocs/internal/vm"
)

// Metrics bundles the engine counter sinks threaded through one pipeline:
// the concrete VM, the symbolic executor, and the constraint solver. A nil
// *Metrics disables engine instrumentation entirely — the accessors return
// nil sinks, which the engines treat as no-ops — so an unregistered
// pipeline pays nothing on the hot path.
type Metrics struct {
	VM     *vm.Metrics
	Symex  *symex.Metrics
	Solver *solver.Metrics

	// Phase holds the octopocs_phase_seconds series of each name in
	// Phases. Pipeline.phase observes every phase run into it, cache hits
	// and phases of jobs that later fail included.
	Phase map[string]*telemetry.Histogram

	// Static pre-analysis counters (the P2 pre-phase). All fields are
	// nil-tolerant, so a partially populated bundle is valid.
	StaticAnalyses      *telemetry.Counter
	StaticFolded        *telemetry.Counter
	StaticDeadBlocks    *telemetry.Counter
	StaticDeadRegions   *telemetry.Counter
	StaticShortCircuits *telemetry.Counter

	// Abstract-interpretation counters (interval∧congruence value ranges).
	AbsintAnalyses       *telemetry.Counter
	AbsintProvedBranches *telemetry.Counter
	AbsintUnreachable    *telemetry.Counter

	// Hybrid-fallback counters (the directed-fuzzing campaign).
	HybridCampaigns  *telemetry.Counter
	HybridRescued    *telemetry.Counter
	HybridRejected   *telemetry.Counter
	HybridExecutions *telemetry.Counter

	// Fault-injection counters (populated by the chaos harness; always zero
	// in production, where no injector is attached).
	FaultsInjected  *telemetry.Counter
	FaultsRecovered *telemetry.Counter
	FaultsRetried   *telemetry.Counter
	FaultsDegraded  *telemetry.Counter
}

// NewMetrics registers the engine counter families on reg under their
// canonical octopocs_* names and returns the bundle. A nil registry yields
// a nil bundle (instrumentation off).
//
// The symex counters carry the paper's § III/IV state taxonomy into the
// exposition: loop-dead and program-dead terminations, transient loop
// states, and θ-retry exhaustion (runs whose every backtrack up to θ
// iterations still ended loop-dead).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	sol := &solver.Metrics{
		Solves: reg.Counter("octopocs_solver_solves_total",
			"Constraint solver Solve calls.", nil),
		Sat: reg.Counter("octopocs_solver_sat_total",
			"Solver calls that produced a model.", nil),
		Unsat: reg.Counter("octopocs_solver_unsat_total",
			"Solver calls that proved the constraints unsatisfiable.", nil),
		Budget: reg.Counter("octopocs_solver_budget_exhausted_total",
			"Solver calls that hit the evaluation budget before a verdict.", nil),
		CacheHits: reg.Counter("octopocs_solver_sat_cache_hits_total",
			"Sat checks answered from the memoized verdict cache.", nil),
		CacheMisses: reg.Counter("octopocs_solver_sat_cache_misses_total",
			"Cache-backed Sat checks that had to solve.", nil),
		StaticDischarged: reg.Counter("octopocs_solver_static_discharged_total",
			"Feasibility queries answered by the absint branch oracle without a solver call.", nil),
	}
	phase := make(map[string]*telemetry.Histogram, len(Phases))
	for _, name := range Phases {
		phase[name] = reg.Histogram("octopocs_phase_seconds",
			"Wall-clock seconds of one pipeline phase run, cache hits included.",
			telemetry.Labels{"phase": name}, nil)
	}
	return &Metrics{
		Phase: phase,
		VM: &vm.Metrics{
			Runs: reg.Counter("octopocs_vm_runs_total",
				"Concrete VM executions.", nil),
			Insts: reg.Counter("octopocs_vm_instructions_total",
				"Concrete VM instructions retired.", nil),
			Crashes: reg.Counter("octopocs_vm_crashes_total",
				"Concrete VM runs that ended in a crash.", nil),
			Hangs: reg.Counter("octopocs_vm_hangs_total",
				"Concrete VM runs that exhausted their step budget.", nil),
		},
		Symex: &symex.Metrics{
			Runs: reg.Counter("octopocs_symex_runs_total",
				"Symbolic executions completed (directed and naive).", nil),
			States: reg.Counter("octopocs_symex_states_total",
				"Symbolic states explored.", nil),
			Steps: reg.Counter("octopocs_symex_steps_total",
				"Symbolic instructions stepped.", nil),
			Backtracks: reg.Counter("octopocs_symex_backtracks_total",
				"Directed-mode decision reversals.", nil),
			LoopStates: reg.Counter("octopocs_symex_loop_states_total",
				"Decisions that re-entered a visited block (transient loop states).", nil),
			LoopDeads: reg.Counter("octopocs_symex_loop_dead_total",
				"Loop-dead state terminations (no feasible loop exit within theta).", nil),
			ProgramDeads: reg.Counter("octopocs_symex_program_dead_total",
				"Program-dead state terminations (no feasible branch).", nil),
			ThetaExhausted: reg.Counter("octopocs_symex_theta_exhausted_total",
				"Runs whose every retry up to theta iterations ended loop-dead.", nil),
			SatChecks: reg.Counter("octopocs_symex_sat_checks_total",
				"Feasibility queries issued during symbolic execution.", nil),
			Steals: reg.Counter("octopocs_symex_frontier_steals_total",
				"Frontier nodes executed by a worker other than their emitter.", nil),
			FrontierPeak: reg.Gauge("octopocs_symex_frontier_peak_nodes",
				"Peak pending-node depth of the most recent parallel run.", nil),
			WorkerSteps: reg.Histogram("octopocs_symex_worker_steps",
				"Per-worker symbolic step counts of parallel runs.", nil,
				[]float64{0, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}),
			Solver: sol,
		},
		Solver: sol,
		StaticAnalyses: reg.Counter("octopocs_static_analyses_total",
			"Static pre-analyses computed (cache hits excluded).", nil),
		StaticFolded: reg.Counter("octopocs_static_branches_folded_total",
			"Branches proven one-sided by the static pre-analysis.", nil),
		StaticDeadBlocks: reg.Counter("octopocs_static_blocks_pruned_total",
			"Basic blocks proven dead and pruned from the CFG view.", nil),
		StaticDeadRegions: reg.Counter("octopocs_static_dead_regions_total",
			"Dominator-closed dead regions behind folded branches.", nil),
		StaticShortCircuits: reg.Counter("octopocs_static_short_circuits_total",
			"Verifications concluded statically-unreachable without symbolic execution.", nil),
		AbsintAnalyses: reg.Counter("octopocs_absint_analyses_total",
			"Abstract-interpretation analyses computed (cache hits excluded).", nil),
		AbsintProvedBranches: reg.Counter("octopocs_absint_proved_branches_total",
			"Conditional branches proven one-sided by value-range analysis.", nil),
		AbsintUnreachable: reg.Counter("octopocs_absint_unreachable_blocks_total",
			"Basic blocks proven unreachable by value-range analysis.", nil),
		HybridCampaigns: reg.Counter("octopocs_hybrid_campaigns_total",
			"Directed-fuzzing fallback campaigns run (cache hits excluded).", nil),
		HybridRescued: reg.Counter("octopocs_hybrid_rescued_total",
			"Campaigns whose replay-confirmed crash upgraded a symex failure.", nil),
		HybridRejected: reg.Counter("octopocs_hybrid_rejected_total",
			"Cached hybrid outcomes discarded because their poc' no longer reproduced.", nil),
		HybridExecutions: reg.Counter("octopocs_hybrid_execs_total",
			"Concrete executions spent by fallback campaigns.", nil),
		FaultsInjected: reg.Counter("octopocs_faults_injected_total",
			"Faults fired by the injection schedule.", nil),
		FaultsRecovered: reg.Counter("octopocs_faults_recovered_total",
			"Panics recovered by containment boundaries (workers, job runners, HTTP handlers).", nil),
		FaultsRetried: reg.Counter("octopocs_faults_retried_total",
			"Phase retries triggered by transient faults.", nil),
		FaultsDegraded: reg.Counter("octopocs_faults_degraded_total",
			"Degraded-mode fallbacks taken (cache bypassed, static pruning skipped).", nil),
	}
}

// vmSink, symexSink and solverSink are the nil-tolerant accessors the
// pipeline threads into engine configs.
func (m *Metrics) vmSink() *vm.Metrics {
	if m == nil {
		return nil
	}
	return m.VM
}

func (m *Metrics) symexSink() *symex.Metrics {
	if m == nil {
		return nil
	}
	return m.Symex
}

func (m *Metrics) solverSink() *solver.Metrics {
	if m == nil {
		return nil
	}
	return m.Solver
}

// observePhase records one phase run's wall time.
func (m *Metrics) observePhase(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.Phase[name].ObserveDuration(d)
}

// staticObserve flushes one freshly computed static pre-analysis.
func (m *Metrics) staticObserve(s *mirstatic.Summary) {
	if m == nil {
		return
	}
	m.StaticAnalyses.Inc()
	m.StaticFolded.Add(uint64(s.FoldedBranches))
	m.StaticDeadBlocks.Add(uint64(s.DeadBlocks))
	m.StaticDeadRegions.Add(uint64(s.DeadRegions))
}

// absintObserve flushes one freshly computed abstract interpretation.
func (m *Metrics) absintObserve(s *absint.Summary) {
	if m == nil {
		return
	}
	m.AbsintAnalyses.Inc()
	m.AbsintProvedBranches.Add(uint64(s.ProvedBranches))
	m.AbsintUnreachable.Add(uint64(s.Unreachable))
}

// hybridObserve flushes one freshly run fallback campaign.
func (m *Metrics) hybridObserve(o *hybrid.Outcome) {
	if m == nil {
		return
	}
	m.HybridCampaigns.Inc()
	if o.Rescued {
		m.HybridRescued.Inc()
	}
	m.HybridExecutions.Add(uint64(o.Execs))
}

// hybridRejected counts one corrupted cached outcome discarded by the
// replay gate.
func (m *Metrics) hybridRejected() {
	if m == nil {
		return
	}
	m.HybridRejected.Inc()
}

// staticShortCircuit counts one statically-unreachable verdict emitted
// without running symbolic execution.
func (m *Metrics) staticShortCircuit() {
	if m == nil {
		return
	}
	m.StaticShortCircuits.Inc()
}
