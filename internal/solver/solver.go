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
// charges the budget. Two shortcuts reproduce it without evaluating value
// by value. An interval pre-check (interval.go) bounds a constraint over
// the box of its symbols' domains; when the bound proves it true or false
// everywhere, the narrowed domains and the evaluation count enumeration
// would reach are known in closed form. A filter-outcome memo (memo.go),
// held in the Cache, replays a filtering pass whose exact input —
// constraint, assigned values, unassigned domains — completed before.
// Both charge their count through one helper that fails exactly when the
// count exceeds what is left, which is exactly when enumeration would have
// failed part-way; since ErrBudget aborts the whole solve from any point,
// charging the total up front is indistinguishable. So every Solve and Sat
// returns the same verdict, the same model and the same budget outcome
// with or without the shortcuts, at every budget.
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

	// noInterval switches off the interval pre-check, so tests can compare
	// against plain enumeration; a nil Cache already switches off the memo.
	noInterval bool
}

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

// values iterates the domain in ascending order.
func (d *domain) values(yield func(byte) bool) {
	for w := 0; w < 4; w++ {
		word := d[w]
		for word != 0 {
			v := byte(w*64 + bits.TrailingZeros64(word))
			if !yield(v) {
				return
			}
			word &= word - 1
		}
	}
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
	// memo, when non-nil, replays filter outcomes (memo.go); sig is
	// memoKey's scratch signature.
	memo       *Cache
	sig        []uint64
	noInterval bool
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
		memo:       memo,
	}
	if st.budget <= 0 {
		st.budget = DefaultBudget
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
	if err := st.search(); err != nil {
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
// the constraint's support.
func (st *state) unassignedIn(ci int) []int {
	var out []int
	for _, sym := range st.support[ci] {
		si := st.symIdx[sym]
		if !st.assigned[si] {
			out = append(out, si)
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
	v, ok := st.constraints[ci].Eval(st.lookup)
	if !ok {
		return false, false, nil
	}
	return v != 0, true, nil
}

// propagateAll runs constraint filtering to fixpoint over every constraint.
func (st *state) propagateAll() error {
	queue := make([]int, len(st.constraints))
	for i := range queue {
		queue[i] = i
	}
	return st.propagate(queue)
}

// propagate filters domains using the queued constraints, enqueueing
// neighbors of narrowed symbols, until fixpoint or wipeout.
func (st *state) propagate(queue []int) error {
	inQueue := make(map[int]bool, len(queue))
	for _, ci := range queue {
		inQueue[ci] = true
	}
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		delete(inQueue, ci)

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
				if !inQueue[next] {
					inQueue[next] = true
					queue = append(queue, next)
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
	var narrowed []int
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
	var iterErr error
	d.values(func(v byte) bool {
		st.assign(si, v)
		sat, decidable, err := st.checkConstraint(ci)
		st.unassign(si)
		if err != nil {
			iterErr = err
			return false
		}
		if decidable && !sat {
			st.domains[si].remove(v)
		}
		return true
	})
	if iterErr != nil || st.domains[si] == d {
		return nil, iterErr
	}
	return []int{si}, nil
}

// filterPair removes values of the two unassigned symbols that participate
// in no satisfying pair. Each side is scanned with early exit: a value is
// kept as soon as one support is found, so satisfiable-everywhere
// constraints cost O(|domain|) while genuinely tight ones still get full
// pruning.
func (st *state) filterPair(ci, a, b int) ([]int, error) {
	supported := func(x, y int) (domain, error) {
		var ok domain
		var iterErr error
		st.domains[x].values(func(vx byte) bool {
			st.assign(x, vx)
			st.domains[y].values(func(vy byte) bool {
				st.assign(y, vy)
				sat, decidable, err := st.checkConstraint(ci)
				st.unassign(y)
				if err != nil {
					iterErr = err
					return false
				}
				if !decidable || sat {
					ok[vx>>6] |= 1 << (vx & 63)
					return false // first support suffices
				}
				return true
			})
			st.unassign(x)
			return iterErr == nil
		})
		return ok, iterErr
	}
	okA, err := supported(a, b)
	if err != nil {
		return nil, err
	}
	okB, err := supported(b, a)
	if err != nil {
		return nil, err
	}
	var narrowed []int
	if intersect(&st.domains[a], &okA) {
		narrowed = append(narrowed, a)
	}
	if intersect(&st.domains[b], &okB) {
		narrowed = append(narrowed, b)
	}
	return narrowed, nil
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

// search assigns remaining symbols by backtracking.
func (st *state) search() error {
	si := st.pickVar()
	if si < 0 {
		return st.verifyAll()
	}

	saveDomains := make([]domain, len(st.domains))
	saveAssigned := make([]bool, len(st.assigned))
	saveValues := make([]byte, len(st.values))
	saveAssignedSym := make([]bool, len(st.assignedSym))
	saveValueSym := make([]byte, len(st.valueSym))

	var lastErr error = ErrUnsat
	tryVal := func(v byte) (bool, error) {
		copy(saveDomains, st.domains)
		copy(saveAssigned, st.assigned)
		copy(saveValues, st.values)
		copy(saveAssignedSym, st.assignedSym)
		copy(saveValueSym, st.valueSym)

		st.assign(si, v)
		err := st.propagate(append([]int(nil), st.watch[si]...))
		if err == nil {
			err = st.search()
		}
		if err == nil {
			return true, nil
		}
		copy(st.domains, saveDomains)
		copy(st.assigned, saveAssigned)
		copy(st.values, saveValues)
		copy(st.assignedSym, saveAssignedSym)
		copy(st.valueSym, saveValueSym)
		if errors.Is(err, ErrBudget) {
			return false, err
		}
		lastErr = err
		return false, nil
	}

	var done bool
	var fatal error
	st.domains[si].values(func(v byte) bool {
		ok, err := tryVal(v)
		if err != nil {
			fatal = err
			return false
		}
		done = ok
		return !ok
	})
	if fatal != nil {
		return fatal
	}
	if done {
		return nil
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
