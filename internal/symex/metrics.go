package symex

import (
	"octopocs/internal/solver"
	"octopocs/internal/telemetry"
)

// Metrics is the optional counter sink for symbolic execution. The executor
// aggregates into its local Stats during the run and flushes here exactly
// once when Run or RunNaive returns, so instrumentation adds nothing to the
// per-step cost. A nil *Metrics is a valid no-op sink.
type Metrics struct {
	// Runs counts finished executions (directed and naive).
	Runs *telemetry.Counter
	// States counts states explored (paper Table IV "states").
	States *telemetry.Counter
	// Steps counts symbolic instructions stepped.
	Steps *telemetry.Counter
	// Backtracks counts directed-mode decision reversals — the paper's
	// "increase the number of iterations and repeat" θ-retry policy; each
	// backtrack is one forked alternative taken.
	Backtracks *telemetry.Counter
	// LoopStates counts decisions that re-entered a visited block (the
	// paper's transient loop state).
	LoopStates *telemetry.Counter
	// LoopDeads counts loop-dead state terminations (no feasible loop
	// exit within θ).
	LoopDeads *telemetry.Counter
	// ProgramDeads counts program-dead state terminations (no feasible
	// branch at all).
	ProgramDeads *telemetry.Counter
	// ThetaExhausted counts whole runs whose final state was loop-dead:
	// every retry up to θ iterations failed to escape, the § VII
	// loop-bound limitation surfacing at run granularity.
	ThetaExhausted *telemetry.Counter
	// SatChecks counts feasibility queries issued to the solver.
	SatChecks *telemetry.Counter
	// PrunedBranches counts branch directions skipped because the static
	// pre-analysis (P2 pre-phase) proved them dead.
	PrunedBranches *telemetry.Counter
	// SatDischargedStatic counts solver calls avoided because the
	// abstract-interpretation oracle decided the branch first.
	SatDischargedStatic *telemetry.Counter
	// Steals counts frontier nodes executed by a worker other than the one
	// that emitted them (directed runs only).
	Steals *telemetry.Counter
	// FrontierPeak records the peak pending-node depth of the shared
	// frontier heap of the most recent directed run.
	FrontierPeak *telemetry.Gauge
	// WorkerSteps observes the per-worker symbolic step count of each
	// directed run — a flat distribution means the work-stealing frontier
	// balanced the exploration.
	WorkerSteps *telemetry.Histogram
	// Solver, when set, is threaded into the executor's internal solver so
	// its SAT/UNSAT/budget outcomes are counted alongside standalone
	// solver use.
	Solver *solver.Metrics
}

// observe flushes one finished run. finalKind is the terminal state kind
// (KindActive for a run stopped successfully at the objective).
func (m *Metrics) observe(st *Stats, finalKind StateKind) {
	if m == nil {
		return
	}
	m.Runs.Inc()
	m.States.Add(uint64(st.States))
	m.Steps.Add(uint64(st.Steps))
	m.Backtracks.Add(uint64(st.Backtracks))
	m.LoopStates.Add(uint64(st.LoopStates))
	m.LoopDeads.Add(uint64(st.LoopDeads))
	m.ProgramDeads.Add(uint64(st.ProgramDeads))
	m.SatChecks.Add(uint64(st.SatChecks))
	m.PrunedBranches.Add(uint64(st.PrunedBranches))
	m.SatDischargedStatic.Add(uint64(st.SatDischargedStatic))
	m.Solver.ObserveDischarged(st.SatDischargedStatic)
	if finalKind == KindLoopDead {
		m.ThetaExhausted.Inc()
	}
	if st.Workers >= 1 { // directed run
		m.Steals.Add(st.Steals)
		m.FrontierPeak.Set(int64(st.FrontierPeak))
	}
}

// observeWorkers flushes the per-worker step distribution of one directed
// run.
func (m *Metrics) observeWorkers(steps []int64) {
	if m == nil {
		return
	}
	for _, s := range steps {
		m.WorkerSteps.Observe(float64(s))
	}
}
