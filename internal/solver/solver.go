// Package solver decides satisfiability of byte-symbol constraint systems
// and produces concrete models: the decision procedure behind every branch
// feasibility check of phase P2 (guiding-input generation) and the final
// constraint solving of phase P3.3 that materializes poc'. It is the
// stand-in for the SMT solving that angr delegates to Z3 in the original
// OCTOPOCS implementation.
//
// The algorithm is a classic finite-domain constraint solver: every symbol
// is a byte with a 256-value domain; constraints whose support has at most
// two unassigned symbols are filtered by enumeration; the remainder is
// handled by backtracking search with smallest-domain-first variable
// selection. Work is bounded by an evaluation budget so callers can treat
// "too hard" separately from "unsatisfiable". Sat verdicts can additionally
// be memoized in a sharded LRU keyed by canonical constraint-set identity
// (cache.go), which is what makes repeated feasibility checks across
// sibling frontier states and across service jobs cheap.
//
// Enumeration defines every outcome, including how many evaluations it
// charges the budget. Three shortcuts reproduce it without evaluating value
// by value. An interval pre-check (interval.go) bounds a constraint over
// the box of its symbols' domains; when the bound proves it true or false
// everywhere, the narrowed domains and the evaluation count enumeration
// would reach are known in closed form. A residual fold (supported) fixes
// one symbol of a pair at a time and evaluates the constraint with the
// other left open (expr.Residual); when an And or Mul by 0 leaves a
// result free of the open symbol, that fixed value is settled at once,
// charged what scanning the open symbol's domain would charge. A
// filter-outcome memo (memo.go), held in the Cache, replays a filtering
// pass whose exact input — constraint, assigned values, unassigned
// domains — completed before. All three charge their count through one
// helper that fails exactly when the count exceeds what is left, which is
// exactly when enumeration would have failed part-way; since ErrBudget
// aborts the whole solve from any point, charging the total up front is
// indistinguishable. So every Solve and Sat returns the same verdict, the
// same model and the same budget outcome with or without the shortcuts,
// at every budget.
//
// Concurrency: a Solver value is stateless between calls — each Solve
// builds private search state — so one Solver may be used from many
// goroutines, and the attached Metrics (atomic counters) and Cache
// (sharded, mutex-guarded) are safe to share. Solutions are deterministic:
// the search enumerates domains in ascending order, so the same constraint
// set always yields the same model.
package solver

import (
	"errors"
	"fmt"
	"math/bits"

	"octopocs/internal/expr"
	"octopocs/internal/faultinject"
	"octopocs/internal/journal"
)

// Errors returned by Solve.
var (
	// ErrUnsat means the constraint system has no model.
	ErrUnsat = errors.New("solver: unsatisfiable")
	// ErrBudget means the solver exhausted its work budget before
	// reaching a verdict.
	ErrBudget = errors.New("solver: work budget exhausted")
)

// DefaultBudget is the default number of constraint evaluations.
const DefaultBudget = 8_000_000

// Model assigns a concrete byte to each constrained symbol. Symbols not
// present were unconstrained.
type Model map[int]byte

// Fill materializes an input of length n from the model, defaulting
// unconstrained bytes to fill.
func (m Model) Fill(n int, fill byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = fill
	}
	for sym, v := range m {
		if sym >= 0 && sym < n {
			out[sym] = v
		}
	}
	return out
}

// Solver holds tuning knobs. The zero value uses defaults.
type Solver struct {
	// Budget bounds the number of constraint evaluations; DefaultBudget
	// if zero.
	Budget int64
	// Metrics receives per-Solve outcome counters; may be nil.
	Metrics *Metrics
	// Cache, when non-nil, memoizes Sat verdicts by canonical constraint-set
	// key. Solve's result is never cached — its callers need a model, and
	// models are not canonical — but Solve and Sat both replay filter
	// outcomes from it. Sharing one Cache between solvers (and between
	// jobs) is safe and is the intended configuration.
	Cache *Cache
	// Faults, when non-nil, injects scheduled solver faults: transient Sat
	// and Solve failures and cache-bypass degradations. Nil in production.
	Faults *faultinject.Injector
	// Journal, when non-nil and verbose, receives per-call SAT-memo and
	// complement-short-circuit events. Nil (no-op) in production.
	Journal *journal.Recorder

	// noInterval and noFold switch off the interval pre-check and the
	// residual fold, so tests can compare against plain enumeration; a nil
	// Cache already switches off the memo.
	noInterval bool
	noFold     bool
}

// testHook, when non-nil, sees the state of every solve once it is set up
// (done false) and once it ends (done true). Tests use it to count
// evaluations and to switch a shortcut off in solvers they cannot reach.
var testHook func(st *state, done bool)

// domain is a 256-bit set of candidate byte values.
type domain [4]uint64

func fullDomain() domain {
	return domain{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

func (d *domain) has(v byte) bool { return d[v>>6]&(1<<(v&63)) != 0 }
func (d *domain) remove(v byte)   { d[v>>6] &^= 1 << (v & 63) }
func (d *domain) count() int {
	return bits.OnesCount64(d[0]) + bits.OnesCount64(d[1]) + bits.OnesCount64(d[2]) + bits.OnesCount64(d[3])
}

// first returns the smallest value in the domain; ok is false when empty.
func (d *domain) first() (byte, bool) {
	for w := 0; w < 4; w++ {
		if d[w] != 0 {
			return byte(w*64 + bits.TrailingZeros64(d[w])), true
		}
	}
	return 0, false
}

// last returns the largest value in a non-empty domain.
func (d *domain) last() byte {
	w := 3
	for w > 0 && d[w] == 0 {
		w--
	}
	return byte(w*64 + 63 - bits.LeadingZeros64(d[w]))
}

// next removes and returns the smallest value in the domain; ok is false
// when it is empty. Iterating a copy with it visits the values in
// ascending order:
//
//	rest := d
//	for v, ok := rest.next(); ok; v, ok = rest.next() { ... }
func (d *domain) next() (byte, bool) {
	for w := 0; w < 4; w++ {
		if d[w] != 0 {
			v := byte(w*64 + bits.TrailingZeros64(d[w]))
			d[w] &= d[w] - 1
			return v, true
		}
	}
	return 0, false
}

// state is the mutable search state.
type state struct {
	constraints []*expr.Expr
	support     [][]int // per-constraint sorted syms
	symIdx      map[int]int
	syms        []int // all syms, sorted by first appearance
	domains     []domain
	assigned    []bool
	values      []byte
	// assignedSym/valueSym mirror assigned/values indexed directly by
	// symbol id, so expression evaluation avoids map lookups on the hot
	// path.
	assignedSym []bool
	valueSym    []byte
	// watch[i] lists constraint indices mentioning symbol index i.
	watch  [][]int
	budget int64
	// evaluated counts the constraint evaluations actually run, as
	// opposed to the ones charged to the budget.
	evaluated int64
	// memo, when non-nil, replays filter outcomes (memo.go); sig is
	// memoKey's scratch signature.
	memo       *Cache
	sig        []uint64
	noInterval bool
	noFold     bool

	// Scratch space reused across calls, so that propagation, filtering
	// and search allocate nothing per call: the propagation queue and its
	// membership flags, filter's unassigned support and narrowed symbols,
	// and search's snapshots, one per depth, shared by all the levels at
	// that depth.
	queue    []int
	inQueue  []bool
	un       [3]int
	narrowed [2]int
	saves    []snapshot
}

// snapshot is the search state a level starts from.
type snapshot struct {
	domains  []domain
	assigned []bool
	values   []byte
}

// assign sets symbol index si to v, updating both views.
func (st *state) assign(si int, v byte) {
	st.assigned[si] = true
	st.values[si] = v
	sym := st.syms[si]
	st.assignedSym[sym] = true
	st.valueSym[sym] = v
}

// unassign clears symbol index si in both views.
func (st *state) unassign(si int) {
	st.assigned[si] = false
	st.assignedSym[st.syms[si]] = false
}

// Solve returns a model satisfying every constraint (each must evaluate to
// a non-zero value), ErrUnsat, or ErrBudget.
func (s *Solver) Solve(constraints []*expr.Expr) (Model, error) {
	return s.solveWith(constraints, s.Cache)
}

// solveWith is Solve with the filter memo taken from memo.
func (s *Solver) solveWith(constraints []*expr.Expr, memo *Cache) (Model, error) {
	if err := s.Faults.Err(faultinject.SolverTimeout); err != nil {
		s.Metrics.observe(err)
		return nil, err
	}
	model, err := s.solve(constraints, memo)
	s.Metrics.observe(err)
	return model, err
}

func (s *Solver) solve(constraints []*expr.Expr, memo *Cache) (Model, error) {
	st := &state{
		symIdx:     make(map[int]int),
		budget:     s.Budget,
		noInterval: s.noInterval,
		noFold:     s.noFold,
		memo:       memo,
	}
	if st.budget <= 0 {
		st.budget = DefaultBudget
	}
	if testHook != nil {
		testHook(st, false)
		defer testHook(st, true)
	}

	// Constant constraints decide immediately; others register.
	for _, c := range decompose(constraints) {
		if v, ok := c.IsConst(); ok {
			if v == 0 {
				return nil, ErrUnsat
			}
			continue
		}
		st.constraints = append(st.constraints, c)
		st.support = append(st.support, c.Syms())
	}
	// Directly contradictory pairs — a constraint alongside its exact
	// negation — are routine in backtracking sets: re-executing a branch
	// under an alternative pin re-records the direction the pin already
	// excludes. Arc-consistency filters each constraint of such a pair
	// separately and sees supports for both, so refuting the set through
	// search costs the full cross product of every unrelated domain. A
	// linear syntactic scan decides these for free. Not is involutive on
	// comparison nodes, so the complement of a branch constraint is
	// structurally canonical; fingerprints prefilter, Equal confirms.
	byFp := make(map[uint64][]*expr.Expr, len(st.constraints))
	for _, c := range st.constraints {
		byFp[c.Fingerprint()] = append(byFp[c.Fingerprint()], c)
	}
	for _, c := range st.constraints {
		neg := expr.Not(c)
		for _, o := range byFp[neg.Fingerprint()] {
			if neg.Equal(o) {
				if s.Journal.Verbose() {
					s.Journal.Emit(journal.EvSolverComplement, journal.Attrs{"constraints": len(st.constraints)})
				}
				return nil, ErrUnsat
			}
		}
	}

	for _, sup := range st.support {
		for _, sym := range sup {
			if _, ok := st.symIdx[sym]; !ok {
				st.symIdx[sym] = len(st.syms)
				st.syms = append(st.syms, sym)
			}
		}
	}
	n := len(st.syms)
	maxSym := -1
	for _, sym := range st.syms {
		if sym > maxSym {
			maxSym = sym
		}
	}
	st.assignedSym = make([]bool, maxSym+1)
	st.valueSym = make([]byte, maxSym+1)
	st.domains = make([]domain, n)
	for i := range st.domains {
		st.domains[i] = fullDomain()
	}
	st.assigned = make([]bool, n)
	st.values = make([]byte, n)
	st.watch = make([][]int, n)
	st.inQueue = make([]bool, len(st.constraints))
	for ci, sup := range st.support {
		for _, sym := range sup {
			si := st.symIdx[sym]
			st.watch[si] = append(st.watch[si], ci)
		}
	}

	// Initial propagation over all constraints.
	if err := st.propagateAll(); err != nil {
		return nil, err
	}
	if err := st.search(0); err != nil {
		return nil, err
	}

	model := make(Model, n)
	for i, sym := range st.syms {
		model[sym] = st.values[i]
	}
	return model, nil
}

// lookup is the partial-assignment view used by expr.Eval. It reads the
// symbol-indexed mirror arrays: no map access on the hot path.
func (st *state) lookup(sym int) (uint64, bool) {
	if sym < 0 || sym >= len(st.assignedSym) || !st.assignedSym[sym] {
		return 0, false
	}
	return uint64(st.valueSym[sym]), true
}

// unassignedIn returns the indices (into st.syms) of unassigned symbols in
// the constraint's support, in support order. It stops at three, which
// filtering treats like any larger count, and returns st.un's storage.
func (st *state) unassignedIn(ci int) []int {
	out := st.un[:0]
	for _, sym := range st.support[ci] {
		si := st.symIdx[sym]
		if !st.assigned[si] {
			if out = append(out, si); len(out) == len(st.un) {
				break
			}
		}
	}
	return out
}

// charge spends n evaluations of the budget at once. It fails exactly when
// spending them one at a time would: when n exceeds what is left.
func (st *state) charge(n int64) error {
	st.budget -= n
	if st.budget < 0 {
		return ErrBudget
	}
	return nil
}

// checkConstraint evaluates constraint ci under the current assignment.
// Returns (satisfied, decidable).
func (st *state) checkConstraint(ci int) (bool, bool, error) {
	if err := st.charge(1); err != nil {
		return false, false, err
	}
	st.evaluated++
	v, ok := st.constraints[ci].Eval(st.lookup)
	if !ok {
		return false, false, nil
	}
	return v != 0, true, nil
}

// propagateAll runs constraint filtering to fixpoint over every constraint.
func (st *state) propagateAll() error {
	st.queue = st.queue[:0]
	for ci := range st.constraints {
		st.queue = append(st.queue, ci)
	}
	return st.propagate()
}

// propagate filters domains using the constraints in st.queue, enqueueing
// neighbors of narrowed symbols, until fixpoint or wipeout.
func (st *state) propagate() error {
	clear(st.inQueue)
	for _, ci := range st.queue {
		st.inQueue[ci] = true
	}
	for head := 0; head < len(st.queue); head++ {
		ci := st.queue[head]
		st.inQueue[ci] = false

		narrowed, err := st.filter(ci)
		if err != nil {
			return err
		}
		for _, si := range narrowed {
			if st.domains[si].count() == 0 {
				return ErrUnsat
			}
			// Singleton domains become assignments.
			if !st.assigned[si] && st.domains[si].count() == 1 {
				v, _ := st.domains[si].first()
				st.assign(si, v)
			}
			for _, next := range st.watch[si] {
				if !st.inQueue[next] {
					st.inQueue[next] = true
					st.queue = append(st.queue, next)
				}
			}
		}
	}
	return nil
}

// filter narrows the domains of the constraint's unassigned symbols and
// returns the narrowed symbol indices. Only constraints with at most two
// unassigned symbols are enumerated; larger supports wait for the search to
// assign more symbols. Fully assigned constraints act as checks.
//
// Enumeration is the reference. Two shortcuts stand in for it only where
// they are exact, in narrowed domains and in evaluations charged: a
// constraint that interval bounds decide over the whole box, and an input
// the memo has seen completed before.
func (st *state) filter(ci int) ([]int, error) {
	un := st.unassignedIn(ci)
	switch len(un) {
	case 0:
		sat, decidable, err := st.checkConstraint(ci)
		if err != nil {
			return nil, err
		}
		if decidable && !sat {
			return nil, ErrUnsat
		}
		return nil, nil
	case 1, 2:
	default:
		return nil, nil
	}
	// A pair whose cross product outgrows the remaining budget waits for
	// the search to assign one side.
	if len(un) == 2 && int64(st.domains[un[0]].count())*int64(st.domains[un[1]].count()) > st.budget {
		return nil, nil
	}
	if o, ok := st.decided(ci, un); ok {
		return st.replay(un, o)
	}
	var h uint64
	if st.memo != nil {
		h = st.memoKey(ci)
		if o, ok := st.memo.recall(h, st.sig); ok {
			return st.replay(un, o)
		}
	}
	before := st.budget
	var narrowed []int
	var err error
	if len(un) == 1 {
		narrowed, err = st.filterOne(ci, un[0])
	} else {
		narrowed, err = st.filterPair(ci, un[0], un[1])
	}
	if err == nil && st.memo != nil {
		o := outcome{evals: before - st.budget}
		for i, si := range un {
			o.doms[i] = st.domains[si]
		}
		st.memo.remember(h, st.sig, o)
	}
	return narrowed, err
}

// replay applies an outcome: it charges the evaluations enumeration spent
// and installs the resulting domains, reporting the changed ones in
// support order as enumeration does.
func (st *state) replay(un []int, o outcome) ([]int, error) {
	if err := st.charge(o.evals); err != nil {
		return nil, err
	}
	narrowed := st.narrowed[:0]
	for i, si := range un {
		if st.domains[si] != o.doms[i] {
			st.domains[si] = o.doms[i]
			narrowed = append(narrowed, si)
		}
	}
	return narrowed, nil
}

// filterOne removes the values of the lone unassigned symbol si under
// which constraint ci is decidably false.
func (st *state) filterOne(ci, si int) ([]int, error) {
	d := st.domains[si]
	rest := d
	for v, more := rest.next(); more; v, more = rest.next() {
		st.assign(si, v)
		sat, decidable, err := st.checkConstraint(ci)
		st.unassign(si)
		if err != nil {
			return nil, err
		}
		if decidable && !sat {
			st.domains[si].remove(v)
		}
	}
	if st.domains[si] == d {
		return nil, nil
	}
	return append(st.narrowed[:0], si), nil
}

// filterPair removes values of the two unassigned symbols that participate
// in no satisfying pair. Each side is scanned with early exit: a value is
// kept as soon as one support is found, so satisfiable-everywhere
// constraints cost O(|domain|) while genuinely tight ones still get full
// pruning.
func (st *state) filterPair(ci, a, b int) ([]int, error) {
	okA, err := st.supported(ci, a, b)
	if err != nil {
		return nil, err
	}
	okB, err := st.supported(ci, b, a)
	if err != nil {
		return nil, err
	}
	narrowed := st.narrowed[:0]
	if intersect(&st.domains[a], &okA) {
		narrowed = append(narrowed, a)
	}
	if intersect(&st.domains[b], &okB) {
		narrowed = append(narrowed, b)
	}
	return narrowed, nil
}

// supported returns the values of x's domain that constraint ci holds (or
// cannot be decided) for with some value of y's domain, scanning y in
// ascending order and stopping at the first such value.
//
// Once x is fixed, a constraint that can absorb y (expr.MayAbsorb) may no
// longer depend on y at all. Its residual then settles x's value in closed
// form, charged as the scan would charge it: a constant 0 fails at every
// value of y, |D_y| evaluations and no support; a constant non-zero or
// undefined result is a support at the first value, one evaluation.
func (st *state) supported(ci, x, y int) (domain, error) {
	c := st.constraints[ci]
	inner := st.syms[y]
	ny := int64(st.domains[y].count())
	fold := !st.noFold && ny > 0 && c.MayAbsorb()
	var ok domain
	xs := st.domains[x]
	for vx, more := xs.next(); more; vx, more = xs.next() {
		st.assign(x, vx)
		if fold {
			if v, defined, konst := c.Residual(st.lookup, inner); konst {
				st.unassign(x)
				if defined && v == 0 {
					if err := st.charge(ny); err != nil {
						return ok, err
					}
					continue
				}
				if err := st.charge(1); err != nil {
					return ok, err
				}
				ok[vx>>6] |= 1 << (vx & 63)
				continue
			}
		}
		ys := st.domains[y]
		for vy, more := ys.next(); more; vy, more = ys.next() {
			st.assign(y, vy)
			sat, decidable, err := st.checkConstraint(ci)
			st.unassign(y)
			if err != nil {
				st.unassign(x)
				return ok, err
			}
			if !decidable || sat {
				ok[vx>>6] |= 1 << (vx & 63)
				break // first support suffices
			}
		}
		st.unassign(x)
	}
	return ok, nil
}

// intersect ands ok into d and reports whether d changed.
func intersect(d, ok *domain) bool {
	changed := false
	for w := 0; w < 4; w++ {
		nv := d[w] & ok[w]
		if nv != d[w] {
			changed = true
			d[w] = nv
		}
	}
	return changed
}

// search assigns remaining symbols by backtracking, depth levels deep
// already. Each level snapshots the state it starts from once and restores
// it after every value that fails.
func (st *state) search(depth int) error {
	si := st.pickVar()
	if si < 0 {
		return st.verifyAll()
	}

	if depth == len(st.saves) {
		n := len(st.syms)
		st.saves = append(st.saves, snapshot{make([]domain, n), make([]bool, n), make([]byte, n)})
	}
	save := st.saves[depth]
	copy(save.domains, st.domains)
	copy(save.assigned, st.assigned)
	copy(save.values, st.values)

	var lastErr error = ErrUnsat
	rest := st.domains[si]
	for v, more := rest.next(); more; v, more = rest.next() {
		st.assign(si, v)
		st.queue = append(st.queue[:0], st.watch[si]...)
		err := st.propagate()
		if err == nil {
			err = st.search(depth + 1)
		}
		if err == nil {
			return nil
		}
		copy(st.domains, save.domains)
		copy(st.assigned, save.assigned)
		copy(st.values, save.values)
		for i, sym := range st.syms {
			st.assignedSym[sym] = st.assigned[i]
			st.valueSym[sym] = st.values[i]
		}
		if errors.Is(err, ErrBudget) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// pickVar chooses the unassigned symbol with the smallest domain, or -1.
func (st *state) pickVar() int {
	best, bestCount := -1, 257
	for si := range st.syms {
		if st.assigned[si] {
			continue
		}
		if c := st.domains[si].count(); c < bestCount {
			best, bestCount = si, c
		}
	}
	return best
}

// verifyAll re-checks every constraint under the now-total assignment.
func (st *state) verifyAll() error {
	for ci := range st.constraints {
		sat, decidable, err := st.checkConstraint(ci)
		if err != nil {
			return err
		}
		if !decidable || !sat {
			return ErrUnsat
		}
	}
	return nil
}

// Sat reports whether the constraints are satisfiable without returning a
// model. The error distinguishes budget exhaustion. When a Cache is
// attached, the verdict is served from (and recorded into) it; only
// definite sat/unsat answers are memoized, so cached and fresh verdicts
// always agree for solvers sharing a budget.
func (s *Solver) Sat(constraints []*expr.Expr) (bool, error) {
	if err := s.Faults.Err(faultinject.SolverSat); err != nil {
		return false, fmt.Errorf("sat check: %w", err)
	}
	// An injected cache fault degrades this one check to uncached solving:
	// cached and fresh verdicts are always identical, so only the work
	// changes, never the answer.
	cache := s.Cache
	if cache != nil && s.Faults.Fire(faultinject.SolverCache) {
		cache = nil
	}
	var key CacheKey
	if cache != nil {
		key = SatKey(constraints)
		if sat, ok := cache.Lookup(key); ok {
			s.Metrics.observeCache(true)
			if s.Journal.Verbose() {
				s.Journal.Emit(journal.EvSolverSatCache, journal.Attrs{"hit": true, "sat": sat})
			}
			return sat, nil
		}
		s.Metrics.observeCache(false)
		if s.Journal.Verbose() {
			s.Journal.Emit(journal.EvSolverSatCache, journal.Attrs{"hit": false})
		}
	}
	_, err := s.solveWith(constraints, cache)
	if err == nil {
		cache.Store(key, true)
		return true, nil
	}
	if errors.Is(err, ErrUnsat) {
		cache.Store(key, false)
		return false, nil
	}
	return false, fmt.Errorf("sat check: %w", err)
}
