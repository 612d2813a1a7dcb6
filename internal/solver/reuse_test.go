package solver

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"octopocs/internal/expr"
)

// shiftSyms rebuilds e with every symbol id raised by k.
func shiftSyms(e *expr.Expr, k int) *expr.Expr {
	switch e.Op {
	case expr.OpConst:
		return e
	case expr.OpSym:
		return expr.Sym(e.Sym + k)
	}
	return expr.Bin(e.Op, shiftSyms(e.X, k), shiftSyms(e.Y, k))
}

// dirtySystem builds, from the same fuzz bytes, a larger system than
// replaySystem's: that system moved to symbols 5-8, the system of the
// reversed bytes on symbols 0-3, and a wide pair relation and a
// disequality on symbols 9-12, so solving it grows every slice of the
// state past what replaySystem needs and can leave search levels behind.
func dirtySystem(cs []*expr.Expr, data []byte) []*expr.Expr {
	var out []*expr.Expr
	for _, c := range cs {
		out = append(out, shiftSyms(c, 5))
	}
	rev := slices.Clone(data)
	slices.Reverse(rev)
	out = append(out, replaySystem(rev)...)
	sum := expr.Bin(expr.OpAdd, expr.Sym(9), expr.Bin(expr.OpMul, expr.Sym(10), expr.Const(3)))
	return append(out,
		expr.Bin(expr.OpEq, expr.Bin(expr.OpAnd, sum, expr.Const(0xff)), expr.Sym(11)),
		expr.Bin(expr.OpNe, expr.Sym(12), expr.Const(uint64(len(data)))))
}

// newState returns a state that was never used.
func newState() *state { return statePool.New().(*state) }

// solveRun is one observed solve: its answer and its evaluation counts.
type solveRun struct {
	model              Model
	class              string
	charged, evaluated int64
}

// solveOn runs s on st, filter memo off or on a fresh Cache, and observes
// it.
func solveOn(s Solver, st *state, cs []*expr.Expr, wantModel bool) solveRun {
	var r solveRun
	r.charged, r.evaluated = CountEvaluations(true, func() {
		var err error
		r.model, err = s.solve(st, cs, s.Cache, wantModel)
		r.class = errClass(err)
	})
	return r
}

// FuzzSolverStateReuse checks that a pooled search state carries nothing
// from one solve into the next: a system solved on a state that a larger
// system has just left, and a larger system solved on a state that the
// smaller one has just left, return the same verdict and model, and
// charge and run the same evaluations, as on a state never used before.
// Every variant without a shared memo runs at the replay cap and at a
// budget drawn from the input, so some dirty solves end part-way through
// search.
func FuzzSolverStateReuse(f *testing.F) {
	f.Add([]byte{1, 0, 5, 1, 0, 1, 5, 1, 0, 0, 0, 7, 0})
	f.Add([]byte{1, 0, 5, 1, 0, 1, 5, 1, 0, 0, 2, 7, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 200, 0})
	f.Add([]byte{0, 0x82, 3, 100, 0, 2, 4, 0, 0, 2, 4, 7, 0, 1, 1, 0})
	f.Add([]byte{2, 0, 2, 3, 0, 1, 7, 0xaa, 0, 2, 3, 0, 4, 1, 2, 3, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 9, 7, 0, 1, 5, 1, 0, 5, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		cs := replaySystem(data)
		if len(cs) == 0 {
			return
		}
		dirty := dirtySystem(cs, data)
		budgets := []int64{replayBudget, 1 + int64(len(data))*7919%replayBudget}
		for _, v := range replayVariants {
			if v.memo == "warm" {
				continue // a shared memo makes evaluations run depend on history
			}
			for _, budget := range budgets {
				for _, wantModel := range []bool{true, false} {
					// One state solves dirty, then cs, then dirty again.
					st := newState()
					solveOn(v.solver(budget, nil), st, dirty, wantModel)
					prev := dirty
					for _, sys := range [][]*expr.Expr{cs, dirty} {
						got := solveOn(v.solver(budget, nil), st, sys, wantModel)
						want := solveOn(v.solver(budget, nil), newState(), sys, wantModel)
						if !maps.Equal(got.model, want.model) || got.class != want.class ||
							got.charged != want.charged || got.evaluated != want.evaluated {
							t.Fatalf("%s at budget %d (model %v): reused state gave %+v, fresh %+v\nsystem %v\nsolved before on the state: %v",
								v.name, budget, wantModel, got, want, sys, prev)
						}
						prev = sys
					}
				}
			}
		}
	})
}

// TestSatConcurrentSharedSolver issues Sat calls from several goroutines
// through one Solver and one Cache, over systems of different sizes, so
// pooled states pass between goroutines and systems: every verdict must
// match a solver without shortcuts. Run it under -race.
func TestSatConcurrentSharedSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := make([][]*expr.Expr, 48)
	for i := range sets {
		sets[i] = randConstraintSet(rng)
		if i%3 == 0 {
			// Grow every third system onto symbols 4-11.
			for _, c := range randConstraintSet(rng) {
				sets[i] = append(sets[i], shiftSyms(c, 4+i%5))
			}
		}
	}
	want := make([]string, len(sets))
	for i, cs := range sets {
		ref := reference(0)
		sat, err := ref.Sat(cs)
		want[i] = errClass(err)
		if err == nil && !sat {
			want[i] = "unsat"
		}
	}
	s := Solver{Cache: NewCache(32)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range sets {
					i := (i*(g+1) + round) % len(sets)
					sat, err := s.Sat(sets[i])
					got := errClass(err)
					if err == nil && !sat {
						got = "unsat"
					}
					if got != want[i] {
						t.Errorf("set %d: Sat gave %s, reference %s", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFilterAllocBound gates the evaluation kernel: once a constraint's
// program is compiled and the state has evaluated it, filtering it again
// allocates nothing, as a pair filter (mixmul's congruence
// ((s0*17 + s1*31) & 63) == 5) and as a lone-symbol filter (the same
// constraint with s1 assigned).
func TestFilterAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are gated without -race only, as TestSatAllocBound's")
	}
	k := expr.Const
	mix := expr.Bin(expr.OpAdd, expr.Bin(expr.OpMul, expr.Sym(0), k(17)), expr.Bin(expr.OpMul, expr.Sym(1), k(31)))
	c := expr.Bin(expr.OpEq, expr.Bin(expr.OpAnd, mix, k(63)), k(5))
	st := newState()
	st.constraints = append(st.constraints, c)
	st.index()
	full := slices.Clone(st.domains)
	filters := []struct {
		name string
		run  func() ([]int, error)
	}{
		{"pair", func() ([]int, error) { return st.filterPair(0, 0, 1) }},
		{"lone", func() ([]int, error) {
			st.assign(1, 7)
			defer st.unassign(1)
			return st.filterOne(0, 0)
		}},
	}
	for _, f := range filters {
		run := func() {
			copy(st.domains, full)
			st.budget = 1 << 40
			if _, err := f.run(); err != nil {
				t.Fatalf("%s filter: %v", f.name, err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("warm %s filter allocates %v objects, want 0", f.name, allocs)
		}
	}
}
