package symex

import (
	"errors"
	"fmt"

	"octopocs/internal/cfg"
	"octopocs/internal/expr"
	"octopocs/internal/faultinject"
	"octopocs/internal/isa"
	"octopocs/internal/solver"
)

// ErrMemBudget reports that naive exploration exceeded its memory budget —
// the "MemError" column of Table IV, i.e. the path-explosion failure mode
// that directed symbolic execution exists to avoid.
var ErrMemBudget = errors.New("symex: naive exploration exceeded memory budget")

// DefaultMemBudget is the naive-mode retained-memory budget in (estimated)
// bytes.
const DefaultMemBudget = 64 << 20

// NaiveConfig parameterizes naive (undirected) exploration.
type NaiveConfig struct {
	// InputSize, MaxSteps as in Config.
	InputSize int
	MaxSteps  int64
	// Theta still bounds per-frame block revisits per state, or the
	// frontier would grow unboundedly inside a single loop.
	Theta int
	// SatBudget per feasibility check.
	SatBudget int64
	// Target is the function to reach.
	Target string
	// MemBudget bounds the estimated retained bytes of the frontier.
	MemBudget int64
	// MaxStates bounds total states processed.
	MaxStates int
	// DFS pops the newest state first instead of the oldest. Breadth-first
	// order models undirected whole-program exploration (the Table IV
	// baseline); depth-first order is what the dynamic-CFG discovery pass
	// uses to get past wide-but-shallow branching.
	DFS bool
	// Stop is a cooperative cancellation signal; when it closes, the
	// exploration returns ErrStopped promptly. May be nil.
	Stop <-chan struct{}
	// Metrics receives run-level counters, flushed once per exploration;
	// may be nil.
	Metrics *Metrics
	// SolverCache, when non-nil, memoizes satisfiability verdicts across
	// feasibility checks; safe to share between explorations.
	SolverCache *solver.Cache
	// Prune, when non-nil, skips statically dead branch directions exactly
	// as in Config.Prune; the fork set is unchanged because a pruned
	// direction is infeasible and would be dropped by its SAT check.
	Prune cfg.Pruner
	// Oracle, when non-nil, discharges absint-proved branches without a
	// solver call exactly as in Config.Oracle; the fork set is unchanged.
	Oracle StaticOracle
	// Faults, when non-nil, injects scheduled faults exactly as in
	// Config.Faults. Nil in production.
	Faults *faultinject.Injector
}

// RunNaive explores the program breadth-first, forking at every feasible
// symbolic branch, until some state calls Target ("proceeding with only an
// address of the vulnerable location", § V-C). It reports the resources
// consumed; exceeding the memory budget returns ErrMemBudget with the stats
// collected so far.
func RunNaive(prog *isa.Program, cfg NaiveConfig) (*Result, error) {
	return runNaive(prog, cfg, nil)
}

// runNaive is RunNaive with an optional indirect-call resolution collector.
func runNaive(prog *isa.Program, cfg NaiveConfig, onResolve func(isa.Loc, string)) (res *Result, err error) {
	if cfg.InputSize <= 0 {
		cfg.InputSize = DefaultInputSize
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.Theta <= 0 {
		cfg.Theta = DefaultTheta
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = DefaultMemBudget
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 1 << 20
	}
	e := New(prog, Config{
		InputSize:   cfg.InputSize,
		MaxSteps:    cfg.MaxSteps,
		Theta:       cfg.Theta,
		SatBudget:   cfg.SatBudget,
		Target:      cfg.Target,
		Stop:        cfg.Stop,
		Metrics:     cfg.Metrics,
		SolverCache: cfg.SolverCache,
		Prune:       cfg.Prune,
		Oracle:      cfg.Oracle,
		Faults:      cfg.Faults,
	})
	e.onResolve = onResolve
	defer func() {
		kind := KindActive
		if res != nil {
			kind = res.Kind
		}
		e.cfg.Metrics.observe(&e.stat, kind)
	}()

	initial := entryState(prog)
	frontier := []*State{initial}
	frontierMem := initial.footprint()
	e.stat.PeakMemBytes = frontierMem

	bump := func(delta int64) error {
		frontierMem += delta
		if frontierMem > e.stat.PeakMemBytes {
			e.stat.PeakMemBytes = frontierMem
		}
		if frontierMem > cfg.MemBudget {
			return ErrMemBudget
		}
		return nil
	}

	reached := func(st *State) *Result {
		res := e.result(st)
		res.Kind = KindActive
		return res
	}
	// stopVisitor halts a state arriving at the target through any call,
	// including indirect dispatch.
	stopVisitor := func(EpEntry, *State) (Decision, error) { return Stop, nil }

	for len(frontier) > 0 {
		if e.stopHit() {
			return nil, ErrStopped
		}
		if e.stat.States >= cfg.MaxStates {
			return e.resultWhy(KindHung, "state budget exhausted"), nil
		}
		var st *State
		if cfg.DFS {
			st = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		} else {
			st = frontier[0]
			frontier = frontier[1:]
		}
		if err := bump(-st.footprint()); err != nil {
			return e.resultWhy(KindHung, "mem budget"), err
		}
		e.stat.States++

		// Run the state forward until it terminates, reaches the
		// target, or forks.
		for st.kind == KindActive {
			if st.steps&stopCheckMask == 0 && e.stopHit() {
				return nil, ErrStopped
			}
			if st.steps >= e.cfg.MaxSteps {
				st.die(KindHung, "step budget exhausted")
				break
			}
			fr := st.top()
			in := &fr.fn.Blocks[fr.block].Insts[fr.inst]

			if in.Op == isa.OpCall && in.Callee == e.cfg.Target {
				e.stat.Steps += st.steps
				return reached(st), nil
			}
			var forks []*State
			var forked bool
			if in.Op == isa.OpBr {
				if _, ok := reg(fr, in.A).IsConst(); !ok {
					var err error
					forks, err = e.fork(st, fr, in)
					if err != nil {
						return nil, err
					}
					forked = true
				}
			}
			if in.Op == isa.OpCallInd && !st.pinnedDispatch {
				if _, ok := reg(fr, in.A).IsConst(); !ok {
					var err error
					forks, err = e.forkIndirect(st, fr, in)
					if err != nil {
						return nil, err
					}
					forked = true
				}
			}
			st.pinnedDispatch = false
			if forked {
				for _, f := range forks {
					frontier = append(frontier, f)
					if err := bump(f.footprint()); err != nil {
						e.stat.Steps += st.steps
						return e.resultWhy(KindHung, "mem budget"), err
					}
				}
				break // this state was consumed by the fork
			}
			stop, err := e.step(st, stopVisitor, false)
			if err != nil {
				return nil, err
			}
			if stop {
				e.stat.Steps += st.steps
				return reached(st), nil
			}
		}
		switch st.kind {
		case KindLoopDead:
			e.stat.LoopDeads++
		case KindProgramDead:
			e.stat.ProgramDeads++
		}
		e.stat.Steps += st.steps
	}
	return e.resultWhy(KindProgramDead, "frontier exhausted without reaching target"), nil
}

// resultWhy builds a target-less terminal result carrying the stats.
func (e *Executor) resultWhy(kind StateKind, why string) *Result {
	return &Result{Kind: kind, Why: why, Stats: e.stat}
}

// fork splits a state at a symbolic branch into the feasible successors.
func (e *Executor) fork(st *State, fr *Frame, in *isa.Inst) ([]*State, error) {
	cond := reg(fr, in.A)
	type option struct {
		block      int
		constraint *expr.Expr
	}
	prunedTaken := -1
	if e.cfg.Prune != nil && in.ThenIdx != in.ElseIdx {
		if t, ok := e.cfg.Prune.BranchTaken(fr.fn.Name, fr.block); ok {
			prunedTaken = t
		}
	}
	oracleTaken := -1
	if e.cfg.Oracle != nil && in.ThenIdx != in.ElseIdx {
		if t, ok := e.cfg.Oracle.BranchProved(fr.fn.Name, fr.block); ok {
			oracleTaken = t
		}
	}
	var out []*State
	for _, o := range []option{
		{in.ThenIdx, expr.Bool(cond)},
		{in.ElseIdx, expr.Not(cond)},
	} {
		if fr.visits[o.block] >= e.cfg.Theta {
			continue
		}
		if prunedTaken >= 0 && o.block != prunedTaken {
			// Statically dead direction: the feasibility check below
			// would refute it; skip the SAT call.
			e.stat.PrunedBranches++
			continue
		}
		var ok bool
		if oracleTaken >= 0 {
			// Absint-discharged: the proven arm is feasible, the other
			// is not, with no solver call either way (see Config.Oracle).
			e.stat.SatDischargedStatic++
			ok = o.block == oracleTaken
		} else {
			var err error
			ok, err = e.feasible(st, o.constraint)
			if err != nil {
				return nil, err
			}
		}
		if !ok {
			continue
		}
		ns := st.clone()
		ns.AddConstraint(o.constraint)
		nf := ns.top()
		e.enterBlock(ns, nf, o.block)
		out = append(out, ns)
	}
	return out, nil
}

// forkIndirect splits a state at an indirect call with a symbolic index
// into one successor per feasible function-table slot, pinning the index.
// The program counter stays at the call, which then dispatches under the
// pin. Infeasible and empty slots are dropped.
func (e *Executor) forkIndirect(st *State, fr *Frame, in *isa.Inst) ([]*State, error) {
	idx := reg(fr, in.A)
	var out []*State
	for v, name := range e.prog.FuncTable {
		if name == "" {
			continue
		}
		pin := expr.Bin(expr.OpEq, idx, expr.Const(uint64(v)))
		ok, err := e.feasible(st, pin)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ns := st.clone()
		ns.AddConstraint(pin)
		ns.pinnedDispatch = true
		out = append(out, ns)
	}
	return out, nil
}

// String renders naive failure context in errors.
func (c NaiveConfig) String() string {
	return fmt.Sprintf("naive{target=%s mem=%d}", c.Target, c.MemBudget)
}
