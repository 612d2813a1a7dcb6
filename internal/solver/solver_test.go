package solver_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"octopocs/internal/expr"
	"octopocs/internal/solver"
)

func mustSolve(t *testing.T, cs []*expr.Expr) solver.Model {
	t.Helper()
	var s solver.Solver
	m, err := s.Solve(cs)
	if err != nil {
		t.Fatalf("Solve() = %v, want model", err)
	}
	// Soundness: the model must satisfy every constraint.
	for _, c := range cs {
		v, ok := c.Eval(func(sym int) (uint64, bool) {
			b, present := m[sym]
			if !present {
				return 0, true // unconstrained default
			}
			return uint64(b), true
		})
		if !ok || v == 0 {
			t.Fatalf("model %v does not satisfy %v", m, c)
		}
	}
	return m
}

func wantUnsat(t *testing.T, cs []*expr.Expr) {
	t.Helper()
	var s solver.Solver
	if _, err := s.Solve(cs); !errors.Is(err, solver.ErrUnsat) {
		t.Fatalf("Solve() = %v, want ErrUnsat", err)
	}
}

func TestEmptySystem(t *testing.T) {
	m := mustSolve(t, nil)
	if len(m) != 0 {
		t.Errorf("model = %v, want empty", m)
	}
}

func TestConstantConstraints(t *testing.T) {
	mustSolve(t, []*expr.Expr{expr.Const(1), expr.Const(42)})
	wantUnsat(t, []*expr.Expr{expr.Const(1), expr.Const(0)})
}

func TestSingleByteEquality(t *testing.T) {
	c := expr.Bin(expr.OpEq, expr.Sym(2), expr.Const(0x41))
	m := mustSolve(t, []*expr.Expr{c})
	if m[2] != 0x41 {
		t.Errorf("m[2] = %#x, want 0x41", m[2])
	}
}

func TestWordEqualityAcrossBytes(t *testing.T) {
	// in[0] | in[1]<<8 == 0xBEEF
	word := expr.Bin(expr.OpOr,
		expr.Sym(0),
		expr.Bin(expr.OpShl, expr.Sym(1), expr.Const(8)))
	c := expr.Bin(expr.OpEq, word, expr.Const(0xBEEF))
	m := mustSolve(t, []*expr.Expr{c})
	if m[0] != 0xEF || m[1] != 0xBE {
		t.Errorf("m = %v, want [0]=0xEF [1]=0xBE", m)
	}
}

func TestRangeAndDisequality(t *testing.T) {
	cs := []*expr.Expr{
		expr.Bin(expr.OpLt, expr.Sym(0), expr.Const(10)), // in[0] < 10
		expr.Bin(expr.OpLt, expr.Const(7), expr.Sym(0)),  // in[0] > 7
		expr.Bin(expr.OpNe, expr.Sym(0), expr.Const(8)),  // in[0] != 8
	}
	m := mustSolve(t, cs)
	if m[0] != 9 {
		t.Errorf("m[0] = %d, want 9 (only value in (7,10)\\{8})", m[0])
	}
}

func TestUnsatRange(t *testing.T) {
	wantUnsat(t, []*expr.Expr{
		expr.Bin(expr.OpLt, expr.Sym(0), expr.Const(5)),
		expr.Bin(expr.OpLt, expr.Const(5), expr.Sym(0)),
	})
}

func TestArithmeticRelation(t *testing.T) {
	// in[0] + in[1] == 300 with in[0] == 250
	cs := []*expr.Expr{
		expr.Bin(expr.OpEq, expr.Bin(expr.OpAdd, expr.Sym(0), expr.Sym(1)), expr.Const(300)),
		expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(250)),
	}
	m := mustSolve(t, cs)
	if m[1] != 50 {
		t.Errorf("m[1] = %d, want 50", m[1])
	}
}

func TestMultiplication(t *testing.T) {
	// in[0] * in[1] == 221 = 13*17 (both prime)
	cs := []*expr.Expr{
		expr.Bin(expr.OpEq, expr.Bin(expr.OpMul, expr.Sym(0), expr.Sym(1)), expr.Const(221)),
		expr.Bin(expr.OpLt, expr.Sym(0), expr.Sym(1)), // order them
		expr.Bin(expr.OpNe, expr.Sym(0), expr.Const(1)),
	}
	m := mustSolve(t, cs)
	if m[0] != 13 || m[1] != 17 {
		t.Errorf("m = %v, want 13*17", m)
	}
}

func TestThreeSymbolSum(t *testing.T) {
	// in[0]+in[1]+in[2] == 600, each >= 190: forces values near 200.
	sum := expr.Bin(expr.OpAdd, expr.Bin(expr.OpAdd, expr.Sym(0), expr.Sym(1)), expr.Sym(2))
	cs := []*expr.Expr{
		expr.Bin(expr.OpEq, sum, expr.Const(600)),
		expr.Bin(expr.OpLe, expr.Const(190), expr.Sym(0)),
		expr.Bin(expr.OpLe, expr.Const(190), expr.Sym(1)),
		expr.Bin(expr.OpLe, expr.Const(190), expr.Sym(2)),
	}
	m := mustSolve(t, cs)
	total := int(m[0]) + int(m[1]) + int(m[2])
	if total != 600 {
		t.Errorf("sum = %d, want 600", total)
	}
}

func TestUnsatParity(t *testing.T) {
	// (in[0] & 1) == 0 and (in[0] & 1) == 1
	low := expr.Bin(expr.OpAnd, expr.Sym(0), expr.Const(1))
	wantUnsat(t, []*expr.Expr{
		expr.Bin(expr.OpEq, low, expr.Const(0)),
		expr.Bin(expr.OpEq, low, expr.Const(1)),
	})
}

func TestSharedSymbolChain(t *testing.T) {
	// A chain: in[i] == in[i+1] + 1 for i in 0..5, in[5] == 10.
	var cs []*expr.Expr
	for i := 0; i < 5; i++ {
		cs = append(cs, expr.Bin(expr.OpEq,
			expr.Sym(i),
			expr.Bin(expr.OpAdd, expr.Sym(i+1), expr.Const(1))))
	}
	cs = append(cs, expr.Bin(expr.OpEq, expr.Sym(5), expr.Const(10)))
	m := mustSolve(t, cs)
	for i := 0; i <= 5; i++ {
		if int(m[i]) != 15-i {
			t.Fatalf("m[%d] = %d, want %d", i, m[i], 15-i)
		}
	}
}

func TestSignedComparison(t *testing.T) {
	// As a signed byte-in-word, every byte value is positive, so
	// (in[0] <s 0) is unsat while (0 <=s in[0]) is trivially sat.
	wantUnsat(t, []*expr.Expr{
		expr.Bin(expr.OpSLt, expr.Sym(0), expr.Const(0)),
	})
	mustSolve(t, []*expr.Expr{
		expr.Bin(expr.OpSLe, expr.Const(0), expr.Sym(0)),
	})
}

func TestBudgetExhaustion(t *testing.T) {
	s := solver.Solver{Budget: 10}
	// Force more than 10 evaluations.
	var cs []*expr.Expr
	for i := 0; i < 8; i++ {
		cs = append(cs, expr.Bin(expr.OpLt, expr.Sym(i), expr.Const(200)))
	}
	_, err := s.Solve(cs)
	if !errors.Is(err, solver.ErrBudget) {
		t.Fatalf("Solve() = %v, want ErrBudget", err)
	}
}

func TestSat(t *testing.T) {
	var s solver.Solver
	ok, err := s.Sat([]*expr.Expr{expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(7))})
	if err != nil || !ok {
		t.Errorf("Sat = %v,%v want true,nil", ok, err)
	}
	ok, err = s.Sat([]*expr.Expr{expr.Const(0)})
	if err != nil || ok {
		t.Errorf("Sat = %v,%v want false,nil", ok, err)
	}
}

func TestModelFill(t *testing.T) {
	m := solver.Model{1: 0xAA, 3: 0xBB, 99: 0xCC}
	out := m.Fill(4, 0x00)
	want := []byte{0x00, 0xAA, 0x00, 0xBB}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Fill = %v, want %v", out, want)
		}
	}
}

// Property: systems generated from a known assignment are satisfiable, and
// returned models satisfy all constraints.
func TestSolverCompletenessOnGeneratedSystems(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nsyms := 1 + r.Intn(6)
		secret := make([]byte, nsyms)
		for i := range secret {
			secret[i] = byte(r.Intn(256))
		}
		// Build constraints all true under secret.
		var cs []*expr.Expr
		ncons := 1 + r.Intn(6)
		for i := 0; i < ncons; i++ {
			a, b := r.Intn(nsyms), r.Intn(nsyms)
			sa, sb := expr.Sym(a), expr.Sym(b)
			switch r.Intn(4) {
			case 0: // sym == its value
				cs = append(cs, expr.Bin(expr.OpEq, sa, expr.Const(uint64(secret[a]))))
			case 1: // sum relation
				sum := uint64(secret[a]) + uint64(secret[b])
				cs = append(cs, expr.Bin(expr.OpEq, expr.Bin(expr.OpAdd, sa, sb), expr.Const(sum)))
			case 2: // xor relation
				x := uint64(secret[a]) ^ uint64(secret[b])
				cs = append(cs, expr.Bin(expr.OpEq, expr.Bin(expr.OpXor, sa, sb), expr.Const(x)))
			case 3: // range facts
				cs = append(cs, expr.Bin(expr.OpLe, sa, expr.Const(uint64(secret[a]))))
				cs = append(cs, expr.Bin(expr.OpLe, expr.Const(uint64(secret[a])), sa))
			}
		}
		var s solver.Solver
		m, err := s.Solve(cs)
		if err != nil {
			return false
		}
		for _, c := range cs {
			v, ok := c.Eval(func(sym int) (uint64, bool) {
				if b, present := m[sym]; present {
					return uint64(b), true
				}
				return 0, true
			})
			if !ok || v == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a pinned contradiction is always detected.
func TestSolverSoundnessOnContradictions(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sym := expr.Sym(r.Intn(4))
		v := uint64(r.Intn(256))
		w := (v + 1 + uint64(r.Intn(254))) % 256
		cs := []*expr.Expr{
			expr.Bin(expr.OpEq, sym, expr.Const(v)),
			expr.Bin(expr.OpEq, sym, expr.Const(w)),
		}
		var s solver.Solver
		_, err := s.Solve(cs)
		return errors.Is(err, solver.ErrUnsat)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestComplementPairShortCircuits pins the syntactic-complement scan: a set
// holding a constraint and its exact negation must be refuted without any
// search, even when the pair sits behind unrelated wide-domain symbols that
// would make an enumerative refutation cost their full cross product. The
// tiny budget fails the test if the scan ever regresses to search.
func TestComplementPairShortCircuits(t *testing.T) {
	congruence := func(i int, m uint64) *expr.Expr {
		sum := expr.Bin(expr.OpAdd,
			expr.Bin(expr.OpMul, expr.Sym(2*i), expr.Const(17)),
			expr.Bin(expr.OpMul, expr.Sym(2*i+1), expr.Const(31)))
		return expr.Bin(expr.OpEq, expr.Bin(expr.OpAnd, sum, expr.Const(63)), expr.Const(m))
	}
	cs := []*expr.Expr{
		congruence(0, 3),  // unrelated satisfiable pair (in[0], in[1])
		congruence(1, 14), // unrelated satisfiable pair (in[2], in[3])
		congruence(2, 25),
		expr.Not(congruence(2, 25)), // direct contradiction on (in[4], in[5])
	}
	s := solver.Solver{Budget: 1_000}
	sat, err := s.Sat(cs)
	if err != nil {
		t.Fatalf("Sat() error: %v (complement scan should decide before the budget matters)", err)
	}
	if sat {
		t.Fatal("Sat() = true for a set containing c and ¬c")
	}
	// The same set without the contradiction stays satisfiable.
	s = solver.Solver{}
	sat, err = s.Sat(cs[:3])
	if err != nil || !sat {
		t.Fatalf("Sat(without contradiction) = %v, %v; want true", sat, err)
	}
}

// pathSystem builds a 64-constraint path condition shaped like the
// executor's: magic-byte equalities, range checks, disequalities and
// relations between a free byte and a magic one, none of which decompose
// rewrites. It is satisfiable.
func pathSystem() []*expr.Expr {
	sym, k := expr.Sym, expr.Const
	var cs []*expr.Expr
	for i := 0; i < 32; i++ {
		cs = append(cs, expr.Bin(expr.OpEq, sym(i), k(uint64(0x41+i))))
	}
	for i := 32; i < 48; i++ {
		cs = append(cs, expr.Bin(expr.OpLt, sym(i), k(uint64(16+i))))
	}
	for i := 32; i < 40; i++ {
		cs = append(cs, expr.Bin(expr.OpNe, sym(i), k(0)))
	}
	for i := 48; i < 56; i++ {
		sum := expr.Bin(expr.OpAdd, sym(i), sym(i-48))
		cs = append(cs, expr.Bin(expr.OpLt, k(100), sum))
	}
	return cs
}

// TestSatAllocBound gates the scaffolding of a solve: once the pooled
// search state has grown to a path-length system, a Sat on it allocates
// at most satAllocBound objects. The bound may only be tightened.
func TestSatAllocBound(t *testing.T) {
	const satAllocBound = 2
	if solver.RaceEnabled {
		t.Skip("sync.Pool drops states at random under -race")
	}
	cs := pathSystem()
	if len(cs) != 64 {
		t.Fatalf("path system has %d constraints, want 64", len(cs))
	}
	var s solver.Solver
	if sat, err := s.Sat(cs); err != nil || !sat {
		t.Fatalf("Sat(path) = %v, %v; want true", sat, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Sat(cs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Sat on %d constraints: %v allocs", len(cs), allocs)
	if allocs > satAllocBound {
		t.Fatalf("warm Sat allocates %v objects, bound %d", allocs, satAllocBound)
	}
}
