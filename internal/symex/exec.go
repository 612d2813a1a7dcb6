package symex

import (
	"errors"
	"fmt"
	"log/slog"

	"octopocs/internal/cfg"
	"octopocs/internal/expr"
	"octopocs/internal/faultinject"
	"octopocs/internal/isa"
	"octopocs/internal/journal"
	"octopocs/internal/solver"
	"octopocs/internal/telemetry"
)

// Defaults.
const (
	DefaultInputSize = 256
	DefaultMaxSteps  = 400_000
	// DefaultTheta is the paper's θ: the maximum number of loop
	// iterations attempted when searching for a loop exit (§ IV-B).
	DefaultTheta = 120
)

// Errors.
var (
	// ErrNoDistances means directed execution was requested without
	// backward-path-finding results.
	ErrNoDistances = errors.New("symex: directed execution requires distance maps")
	// ErrStopped reports that the Config.Stop channel was closed mid-run;
	// the execution was cancelled, not completed.
	ErrStopped = errors.New("symex: execution stopped")
)

// stopCheckMask throttles Stop polling: the state loop checks the channel
// when steps&stopCheckMask == 0. Symbolic steps are orders of magnitude
// heavier than concrete ones, so a small interval keeps cancellation prompt
// without measurable overhead.
const stopCheckMask = 255

// Config parameterizes an Executor.
type Config struct {
	// InputSize is the length of the symbolic input file.
	InputSize int
	// MaxSteps bounds instructions per state.
	MaxSteps int64
	// Theta is the maximum number of times a block may be re-entered
	// within one frame before the state is classified loop-dead.
	Theta int
	// SatBudget is the solver evaluation budget per feasibility check.
	SatBudget int64
	// Target is the objective function (the paper's ep).
	Target string
	// Distances holds backward path finding results for Target; required
	// by Run, unused by RunNaive.
	Distances *cfg.Distances
	// Prune, when non-nil, supplies sound static facts (folded branches,
	// dead blocks) from the pre-P2 analysis: the executor skips branch
	// directions the pruner proves dead instead of spending SAT checks and
	// frontier slots on them. Because a pruned direction is infeasible on
	// every path, the committed path, constraint set and result are
	// identical with and without a pruner; only the work differs.
	Prune cfg.Pruner
	// Oracle, when non-nil, supplies abstract-interpretation branch proofs
	// (interval∧congruence value ranges): a branch the oracle decides is
	// resolved without consulting the solver at all. Soundness matches
	// Prune: the proven direction is feasible on exactly the paths the
	// solver would accept (an active state's path condition is invariantly
	// satisfiable, and every concrete execution takes the proven arm), so
	// the committed path, constraint set and result are byte-identical with
	// the oracle on or off; only the SAT checks differ.
	Oracle StaticOracle
	// MaxBacktracks bounds how many pending alternatives directed
	// execution resumes.
	MaxBacktracks int
	// Workers is the number of explorer goroutines Run uses; 0 and 1 both
	// mean one explorer, the deterministic reference configuration. Any
	// N >= 1 produces the same Result (modulo Stats) as long as
	// MaxBacktracks is not hit mid-run. When Workers > 1 the Visitor may be
	// invoked from multiple goroutines concurrently and must be safe for
	// that.
	Workers int
	// SolverCache, when non-nil, memoizes satisfiability verdicts across
	// feasibility checks. Sharing one cache between executors (and between
	// the frontier engine's workers) is safe and is the intended
	// configuration.
	SolverCache *solver.Cache
	// Stop is a cooperative cancellation signal; when it closes, Run and
	// RunNaive return ErrStopped promptly. May be nil.
	Stop <-chan struct{}
	// Metrics receives run-level counters, flushed once per run; may be
	// nil.
	Metrics *Metrics
	// Logger receives structured diagnostics (dead-state context,
	// backtrack exhaustion); nil means discard.
	Logger *slog.Logger
	// Faults, when non-nil, injects scheduled faults at the step-loop
	// checkpoints (worker panic, frontier stall, forced cancellation) and
	// into the executor's solver. Nil in production.
	Faults *faultinject.Injector
	// Journal, when non-nil and verbose, receives per-node frontier events
	// (fork/prune/commit) and the solver's cache events. These are
	// worker-attributed and schedule-dependent, so they are verbose-class:
	// the journal's deterministic rendering never includes them. Nil
	// (no-op) in production.
	Journal *journal.Recorder
}

// DefaultMaxBacktracks bounds how many decision reversals directed
// execution attempts before giving up.
const DefaultMaxBacktracks = 512

// EpEntry describes one arrival at the objective function.
type EpEntry struct {
	// Seq is 1-based arrival ordinal.
	Seq int
	// Args are the symbolic argument expressions of the call.
	Args []*expr.Expr
	// FilePos is the input file position indicator at the call.
	FilePos int64
}

// Decision tells the executor how to proceed after an ep entry.
type Decision int

// Visitor decisions.
const (
	// Continue executes through the objective function and keeps going.
	Continue Decision = iota + 1
	// Stop ends the run successfully with the current constraints.
	Stop
	// Infeasible reports that the constraints the visitor just added
	// contradict the path condition: the state dies and directed
	// execution backtracks to try another path to the objective.
	Infeasible
)

// Visitor observes each arrival at the objective function. It may add
// constraints to the state (phase P3 bunch placement) before deciding.
type Visitor func(entry EpEntry, st *State) (Decision, error)

// StaticOracle answers "which successor does every execution of fn take at
// the conditional branch ending block?" — the contract implemented by
// absint.Result. Implementations must be safe for unsynchronized concurrent
// use: every frontier worker queries the same oracle.
type StaticOracle interface {
	BranchProved(fn string, block int) (taken int, ok bool)
}

// Stats captures resource usage for the Table IV comparison.
type Stats struct {
	Steps     int64
	SatChecks int64
	// States is the number of states explored (directed mode counts the
	// root plus one per resumed alternative).
	States int
	// Backtracks counts directed-mode resumed alternatives (the paper's
	// "increase the number of iterations and repeat" loop policy).
	Backtracks int
	// LoopStates counts symbolic decisions that re-entered an
	// already-visited block — the paper's transient "loop" state.
	LoopStates int64
	// LoopDeads and ProgramDeads count dead states encountered.
	LoopDeads    int
	ProgramDeads int
	// PrunedBranches counts branch directions skipped because the static
	// pre-analysis proved them dead (no SAT check, no backtrack slot).
	PrunedBranches int64
	// SatDischargedStatic counts solver calls avoided because the
	// abstract-interpretation oracle proved the branch direction before the
	// solver ever saw it (one per discharged feasibility query).
	SatDischargedStatic int64
	// PeakMemBytes is the peak estimated retained memory: across live
	// states in naive mode; in directed mode, the larger of the pending
	// frontier's snapshots and any terminal state's footprint.
	PeakMemBytes int64
	// Workers is the number of explorer goroutines used; 0 only for naive
	// runs, which use none.
	Workers int
	// Steals counts frontier nodes executed by a worker other than the one
	// that emitted them (directed mode only).
	Steals uint64
	// FrontierPeak is the maximum number of pending nodes in the shared
	// frontier heap (directed mode only).
	FrontierPeak int
}

// Result is the outcome of a symbolic run.
type Result struct {
	// Kind is KindActive when the visitor stopped the run at the
	// objective (success); otherwise the terminal state kind.
	Kind StateKind
	// Why explains dead kinds.
	Why string
	// Constraints is the full path condition of the final state.
	Constraints []*expr.Expr
	// Entries lists the objective arrivals observed.
	Entries []EpEntry
	// Path is the committed state's frontier identity: the sequence of
	// emission ordinals from the root. It is the same for every worker
	// count by the commit protocol (nil for naive runs, which do not track
	// paths).
	Path  []uint32
	Stats Stats
}

// Reached reports whether the run stopped at the objective by visitor
// decision.
func (r *Result) Reached() bool { return r.Kind == KindActive }

// pathStringMax bounds PathString's rendered elements so journal events
// stay small on pathological decision trees.
const pathStringMax = 96

// PathString renders a frontier path as dotted ordinals ("0.2.1"), and
// "root" for the empty path. Long paths are truncated with a trailing
// ellipsis.
func PathString(path []uint32) string {
	if len(path) == 0 {
		return "root"
	}
	n := len(path)
	truncated := false
	if n > pathStringMax {
		n, truncated = pathStringMax, true
	}
	var b []byte
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, '.')
		}
		b = fmt.Appendf(b, "%d", path[i])
	}
	if truncated {
		b = append(b, "…"...)
	}
	return string(b)
}

// Executor runs symbolic execution over one program.
type Executor struct {
	prog *isa.Program
	cfg  Config
	sol  solver.Solver
	stat Stats
	// emit receives a directed decision's untried alternatives, with the
	// program counter still at the deciding instruction so that resuming
	// re-executes it under the alternative's constraint. Set per worker by
	// the frontier engine, which pushes them into its shared heap.
	emit func(st *State, alts []*expr.Expr, dists []int64)
	// onResolve observes indirect-call resolutions (dynamic CFG discovery).
	onResolve func(site isa.Loc, callee string)
}

// normalize fills Config defaults; shared by New and the frontier engine.
func normalize(cfg Config) Config {
	if cfg.InputSize <= 0 {
		cfg.InputSize = DefaultInputSize
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.Theta <= 0 {
		cfg.Theta = DefaultTheta
	}
	if cfg.MaxBacktracks <= 0 {
		cfg.MaxBacktracks = DefaultMaxBacktracks
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.DiscardLogger()
	}
	return cfg
}

// New returns an executor. The program must be validated.
func New(prog *isa.Program, cfg Config) *Executor {
	cfg = normalize(cfg)
	e := &Executor{prog: prog, cfg: cfg}
	e.sol = solver.Solver{Budget: cfg.SatBudget, Cache: cfg.SolverCache, Faults: cfg.Faults, Journal: cfg.Journal}
	if cfg.Metrics != nil {
		e.sol.Metrics = cfg.Metrics.Solver
	}
	return e
}

// stopHit reports whether the cancellation channel has closed.
func (e *Executor) stopHit() bool {
	if e.cfg.Stop == nil {
		return false
	}
	select {
	case <-e.cfg.Stop:
		return true
	default:
		return false
	}
}

// sat checks satisfiability of the conjunction of cs.
func (e *Executor) sat(cs []*expr.Expr) (bool, error) {
	e.stat.SatChecks++
	return e.sol.Sat(cs)
}

// feasible checks whether adding extra to the state's path condition keeps
// it satisfiable.
func (e *Executor) feasible(st *State, extra *expr.Expr) (bool, error) {
	if v, ok := extra.IsConst(); ok {
		return v != 0, nil
	}
	return e.sat(append(append([]*expr.Expr{}, st.constraints...), extra))
}

// concretize pins a symbolic expression to one concrete value consistent
// with the path condition, adding the pin as a constraint (the standard
// address-concretization strategy). An unsatisfiable path condition kills
// the state (ok=false) so directed execution can backtrack; only solver
// budget exhaustion is a hard error.
func (e *Executor) concretize(st *State, v *expr.Expr) (val uint64, ok bool, err error) {
	if c, isConst := v.IsConst(); isConst {
		return c, true, nil
	}
	e.stat.SatChecks++
	model, err := e.sol.Solve(st.constraints)
	if err != nil {
		if errors.Is(err, solver.ErrUnsat) {
			st.die(KindProgramDead, fmt.Sprintf("path condition unsatisfiable at %s", st.loc()))
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("concretize %v: %w", v, err)
	}
	val, evalOK := v.Eval(func(sym int) (uint64, bool) {
		if b, present := model[sym]; present {
			return uint64(b), true
		}
		return 0, true // unconstrained symbols default to zero
	})
	if !evalOK {
		return 0, false, fmt.Errorf("concretize %v: expression not evaluable", v)
	}
	st.AddConstraint(expr.Bin(expr.OpEq, v, expr.Const(val)))
	return val, true, nil
}

// Run performs directed symbolic execution toward cfg.Target, invoking the
// visitor at every arrival. It implements Algorithm 2 of the paper on the
// frontier engine of frontier.go: the state follows the backward-path
// preference at every decision and leaves the untried direction pending,
// and a dead state (loop-dead, program-dead, crash or premature exit)
// resumes the next-best pending alternative — which is how the paper's
// "increase the number of iterations from one to θ" loop-state handling
// manifests here. The committed outcome is the minimal-path one, the same
// for every Config.Workers.
func (e *Executor) Run(visitor Visitor) (*Result, error) {
	return runFrontier(e.prog, e.cfg, visitor)
}

// deathRank orders terminal kinds by diagnostic value: an infeasible
// objective placement is the strongest "cannot be triggered" signal
// (§ III-C P3.3), then program-dead (§ III-B), then the θ-bounded
// loop-dead.
func deathRank(k StateKind) int {
	switch k {
	case KindInfeasible:
		return 6
	case KindProgramDead:
		return 5
	case KindLoopDead:
		return 4
	case KindHung:
		return 3
	case KindCrashed:
		return 2
	case KindExited:
		return 1
	default:
		return 0
	}
}

// result builds a naive-mode Result from a terminal state.
func (e *Executor) result(st *State) *Result {
	e.stat.Steps = st.steps
	if fp := st.footprint(); fp > e.stat.PeakMemBytes {
		e.stat.PeakMemBytes = fp
	}
	entries := make([]EpEntry, len(st.entries))
	copy(entries, st.entries)
	return &Result{
		Kind:        st.kind,
		Why:         st.why,
		Constraints: st.constraints,
		Entries:     entries,
		Stats:       e.stat,
	}
}

// entryState returns a fresh state positioned at the program entry.
func entryState(prog *isa.Program) *State {
	st := newState()
	st.frames = append(st.frames, &Frame{fn: prog.Func(prog.Entry), visits: map[int]int{0: 1}})
	return st
}

// step executes one instruction of st. directed selects the branch policy.
// The boolean result is true when the visitor stopped the run.
func (e *Executor) step(st *State, visitor Visitor, directed bool) (bool, error) {
	st.steps++
	fr := st.top()
	in := &fr.fn.Blocks[fr.block].Insts[fr.inst]
	advance := true

	switch in.Op {
	case isa.OpConst:
		fr.regs[in.Dst] = expr.Const(uint64(in.Imm))
	case isa.OpMov:
		fr.regs[in.Dst] = reg(fr, in.A)
	case isa.OpBin:
		v, err := e.binOp(st, in.Bin, reg(fr, in.A), reg(fr, in.B))
		if err != nil {
			return false, err
		}
		if st.kind != KindActive {
			return false, nil
		}
		fr.regs[in.Dst] = v
	case isa.OpBinImm:
		v, err := e.binOp(st, in.Bin, reg(fr, in.A), expr.Const(uint64(in.Imm)))
		if err != nil {
			return false, err
		}
		if st.kind != KindActive {
			return false, nil
		}
		fr.regs[in.Dst] = v
	case isa.OpCmp:
		fr.regs[in.Dst] = cmpExpr(in.Cmp, reg(fr, in.A), reg(fr, in.B))
	case isa.OpCmpImm:
		fr.regs[in.Dst] = cmpExpr(in.Cmp, reg(fr, in.A), expr.Const(uint64(in.Imm)))
	case isa.OpLoad:
		addr, ok, err := e.concretize(st, expr.Bin(expr.OpAdd, reg(fr, in.A), expr.Const(uint64(in.Imm))))
		if err != nil || !ok {
			return false, err
		}
		v, f := st.mem.load(addr, in.Size)
		if f != nil {
			st.die(KindCrashed, f.String())
			return false, nil
		}
		fr.regs[in.Dst] = v
	case isa.OpStore:
		addr, ok, err := e.concretize(st, expr.Bin(expr.OpAdd, reg(fr, in.A), expr.Const(uint64(in.Imm))))
		if err != nil || !ok {
			return false, err
		}
		if f := st.mem.store(addr, in.Size, reg(fr, in.B)); f != nil {
			st.die(KindCrashed, f.String())
			return false, nil
		}
	case isa.OpJmp:
		e.enterBlock(st, fr, in.ThenIdx)
		advance = false
	case isa.OpBr:
		if err := e.branch(st, fr, in, directed); err != nil {
			return false, err
		}
		advance = false
	case isa.OpCall:
		stop, err := e.call(st, fr, in, e.prog.Func(in.Callee), visitor)
		if err != nil || stop {
			return stop, err
		}
		advance = false
	case isa.OpCallInd:
		stop, err := e.callIndirect(st, fr, in, visitor, directed)
		if err != nil || stop {
			return stop, err
		}
		advance = false
	case isa.OpRet:
		e.ret(st, fr, reg(fr, in.A))
		advance = false
	case isa.OpTrap:
		st.die(KindCrashed, fmt.Sprintf("trap %d at %s", in.Imm, st.loc()))
		return false, nil
	case isa.OpSyscall:
		if err := e.syscall(st, fr, in); err != nil {
			return false, err
		}
	default:
		return false, fmt.Errorf("symex: unknown opcode %d", in.Op)
	}
	if advance && st.kind == KindActive {
		fr.inst++
	}
	return false, nil
}

// reg reads a register, defaulting unset registers to zero.
func reg(fr *Frame, r isa.Reg) *expr.Expr {
	if v := fr.regs[r]; v != nil {
		return v
	}
	return expr.Zero
}

// cmpExpr builds the boolean expression for a MIR comparison, mapping the
// Gt/Ge forms onto swapped Lt/Le.
func cmpExpr(op isa.CmpOp, a, b *expr.Expr) *expr.Expr {
	switch op {
	case isa.Eq:
		return expr.Bin(expr.OpEq, a, b)
	case isa.Ne:
		return expr.Bin(expr.OpNe, a, b)
	case isa.Lt:
		return expr.Bin(expr.OpLt, a, b)
	case isa.Le:
		return expr.Bin(expr.OpLe, a, b)
	case isa.Gt:
		return expr.Bin(expr.OpLt, b, a)
	case isa.Ge:
		return expr.Bin(expr.OpLe, b, a)
	case isa.SLt:
		return expr.Bin(expr.OpSLt, a, b)
	case isa.SLe:
		return expr.Bin(expr.OpSLe, a, b)
	default:
		panic(fmt.Sprintf("symex: unknown cmp %d", op))
	}
}

// binOp builds the result expression, handling symbolic division guards: a
// division whose divisor could be zero constrains it non-zero when
// feasible, and crashes the state otherwise.
func (e *Executor) binOp(st *State, op isa.BinOp, a, b *expr.Expr) (*expr.Expr, error) {
	var eop expr.Op
	switch op {
	case isa.Add:
		eop = expr.OpAdd
	case isa.Sub:
		eop = expr.OpSub
	case isa.Mul:
		eop = expr.OpMul
	case isa.Div, isa.Mod:
		eop = expr.OpDiv
		if op == isa.Mod {
			eop = expr.OpMod
		}
		if v, ok := b.IsConst(); ok {
			if v == 0 {
				st.die(KindCrashed, "div-by-zero")
				return nil, nil
			}
		} else {
			nz := expr.Bin(expr.OpNe, b, expr.Zero)
			ok, err := e.feasible(st, nz)
			if err != nil {
				return nil, err
			}
			if !ok {
				st.die(KindCrashed, "div-by-zero")
				return nil, nil
			}
			st.AddConstraint(nz)
		}
	case isa.And:
		eop = expr.OpAnd
	case isa.Or:
		eop = expr.OpOr
	case isa.Xor:
		eop = expr.OpXor
	case isa.Shl:
		eop = expr.OpShl
	case isa.Shr:
		eop = expr.OpShr
	default:
		return nil, fmt.Errorf("symex: unknown binop %d", op)
	}
	return expr.Bin(eop, a, b), nil
}
