package solver

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"octopocs/internal/expr"
)

// replayBudget caps every solve of FuzzSolverExactReplay. It admits one
// filtering pass over two full domains, charged 2·256·256 when the pair
// constraint is always false, so the pair shortcuts are reachable.
const replayBudget = 1 << 17

// replayOps are the arithmetic operators replaySystem draws from: every
// binary operator of the expression language.
var replayOps = []expr.Op{
	expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod,
	expr.OpAnd, expr.OpOr, expr.OpXor, expr.OpShl, expr.OpShr,
}

// replayCmps are the comparisons; the two slots past the end make the
// constraint the bare arithmetic term (true when non-zero).
var replayCmps = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpSLt, expr.OpSLe}

// replayConst decodes a constant: small, near 2^64 (so sums and
// differences wrap), in the top byte (so signed order flips) or a
// repeated byte pair.
func replayConst(b, mode byte) *expr.Expr {
	v := uint64(b)
	switch mode % 4 {
	case 1:
		v = ^v
	case 2:
		v <<= 56
	case 3:
		v |= v << 8
	}
	return expr.Const(v)
}

// replaySystem decodes fuzz bytes into up to five constraints over four
// byte symbols. A constraint is a head byte (1 + head%4 terms), the terms,
// and a comparison [cmp, c, mode] against a constant, or none when
// cmp%8 >= 6. A term is [sym, op, k, mode]: sym%4 ⊕ k, or k ⊕ sym when
// sym ≥ 0x80 (so a symbol can be a divisor or a shift amount); every
// term after the first is followed by the operator byte that folds it
// into the running expression. Missing bytes read as zero, so any input
// yields a system.
func replaySystem(data []byte) []*expr.Expr {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var cs []*expr.Expr
	for len(cs) < 5 && len(data) > 0 {
		terms := 1 + int(next()%4)
		var acc *expr.Expr
		for j := 0; j < terms; j++ {
			symByte := next()
			sym := expr.Sym(int(symByte % 4))
			op := replayOps[int(next())%len(replayOps)]
			k := replayConst(next(), next())
			term := expr.Bin(op, sym, k)
			if symByte >= 0x80 {
				term = expr.Bin(op, k, sym)
			}
			if acc == nil {
				acc = term
			} else {
				acc = expr.Bin(replayOps[int(next())%len(replayOps)], acc, term)
			}
		}
		if cmp := int(next()) % (len(replayCmps) + 2); cmp < len(replayCmps) {
			acc = expr.Bin(replayCmps[cmp], acc, replayConst(next(), next()))
		}
		cs = append(cs, acc)
	}
	return cs
}

// errClass names the outcome of a solve for comparison.
func errClass(err error) string {
	switch {
	case err == nil:
		return "sat"
	case errors.Is(err, ErrUnsat):
		return "unsat"
	case errors.Is(err, ErrBudget):
		return "budget"
	}
	return "other: " + err.Error()
}

// replayVariant is a solver configuration under differential test. Every
// variant folds pair residuals, as production does, except where its
// name says "no-fold".
type replayVariant struct {
	name     string
	interval bool
	fold     bool
	memo     string // "off", "cold" (fresh Cache per solve) or "warm"
}

var replayVariants = []replayVariant{
	{"fold", false, true, "off"},
	{"interval+no-fold", true, false, "off"},
	{"interval", true, true, "off"},
	{"interval+memo-cold", true, true, "cold"},
	{"interval+memo-warm", true, true, "warm"},
	{"memo-cold", false, true, "cold"},
	{"memo-warm", false, true, "warm"},
}

// solver returns the variant at budget; warm variants share warm, which
// the caller has already filled by solving the same system.
func (v replayVariant) solver(budget int64, warm *Cache) Solver {
	s := Solver{Budget: budget, noInterval: !v.interval, noFold: !v.fold}
	switch v.memo {
	case "cold":
		s.Cache = NewCache(0)
	case "warm":
		s.Cache = warm
	}
	return s
}

// reference is plain enumeration: no interval pre-check, no residual
// fold, no memo.
func reference(budget int64) Solver {
	return Solver{Budget: budget, noInterval: true, noFold: true}
}

// FuzzSolverExactReplay checks that the interval pre-check, the residual
// fold and the filter-outcome memo are exact: against plain enumeration,
// with the memo off, cold and warm and the other two on and off, Solve
// returns the same model and error class and Sat the same answer. At the
// budget B where
// the reference first succeeds, every variant also succeeds at B and runs
// out of budget at B-1 — the shortcuts charge exactly the evaluations
// they save, so no budget boundary moves.
func FuzzSolverExactReplay(f *testing.F) {
	// (s0&1)+(s1&1) == 7: interval-false over two full domains, so the
	// whole budget boundary sits on one decided pair.
	f.Add([]byte{1, 0, 5, 1, 0, 1, 5, 1, 0, 0, 0, 7, 0})
	// (s0&1)+(s1&1) <u 7 ∧ s0+s1 == 200: an interval-true pair, then
	// enumeration and search.
	f.Add([]byte{1, 0, 5, 1, 0, 1, 5, 1, 0, 0, 2, 7, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 200, 0})
	// 100/s2 <u 4 ∧ s2%7 != 1: a divisor symbol whose domain holds 0.
	f.Add([]byte{0, 0x82, 3, 100, 0, 2, 4, 0, 0, 2, 4, 7, 0, 1, 1, 0})
	// (1<<s2) - s3 <s -6: a shift-amount symbol and a wrapping difference
	// under a signed comparison.
	f.Add([]byte{1, 0x82, 8, 1, 0, 3, 0, 0, 0, 1, 4, 5, 1})
	// (s0*3)*(s1^0xaa)*(s3+(2^64-5)) <=u 0 ∧ s0+s0 == 0: three symbols
	// folded by Mul, one through a wrapping sum.
	f.Add([]byte{2, 0, 2, 3, 0, 1, 7, 0xaa, 0, 2, 3, 0, 4, 1, 2, 3, 0, 0, 1, 0, 0})
	// ((s0>>7) & (s1&1)) != 0: row 3's shape, a conjunction whose left
	// side is 0 for most values of s0, so the residual fold settles them.
	f.Add([]byte{1, 0, 9, 7, 0, 1, 5, 1, 0, 5, 1, 0, 0})
	// ((s0&0x80) & (100/s1)) != 0: the absorbed side divides by the inner
	// symbol, so And by 0 must not fold while s1 can be 0.
	f.Add([]byte{1, 0, 5, 0x80, 0, 0x81, 3, 100, 0, 5, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		cs := replaySystem(data)
		if len(cs) == 0 {
			return
		}
		check := func(budget int64, want Model, wantErr error) {
			t.Helper()
			warm := NewCache(0)
			for _, v := range replayVariants {
				if v.memo == "warm" {
					// Fill the memo at the cap: replays below it must
					// still charge what enumeration would.
					w := v.solver(replayBudget, warm)
					w.Solve(cs)
				}
				s := v.solver(budget, warm)
				got, err := s.Solve(cs)
				if errClass(err) != errClass(wantErr) || !maps.Equal(got, want) {
					t.Fatalf("%s at budget %d: Solve = %v, %v; reference %v, %v\nsystem %v",
						v.name, budget, got, errClass(err), want, errClass(wantErr), cs)
				}
			}
		}

		ref := reference(replayBudget)
		want, wantErr := ref.Solve(cs)
		check(replayBudget, want, wantErr)

		wantSat, satErr := ref.Sat(cs)
		for _, v := range replayVariants {
			warm := NewCache(0)
			if v.memo == "warm" {
				// Solve never stores verdicts, so this warms only the memo.
				w := v.solver(replayBudget, warm)
				w.Solve(cs)
			}
			s := v.solver(replayBudget, warm)
			got, err := s.Sat(cs)
			if got != wantSat || errClass(err) != errClass(satErr) {
				t.Fatalf("%s: Sat = %v, %v; reference %v, %v\nsystem %v", v.name, got, err, wantSat, satErr, cs)
			}
		}

		if errors.Is(wantErr, ErrBudget) {
			return
		}
		// Bisect for the least budget at which the reference succeeds.
		// Budget 0 means DefaultBudget, so the search starts above it.
		lo, hi := int64(0), int64(replayBudget) // fails at lo (or lo is 0), succeeds at hi
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			r := reference(mid)
			if _, err := r.Solve(cs); errors.Is(err, ErrBudget) {
				lo = mid
			} else {
				hi = mid
			}
		}
		ref = reference(hi)
		want, wantErr = ref.Solve(cs)
		check(hi, want, wantErr)
		if lo > 0 {
			check(lo, nil, ErrBudget)
		}
	})
}

// TestCorpusBudgetBoundary pins the two feasibility checks of the corpus
// that end in ErrBudget at DefaultBudget: row 5's 32-bit product overflow
// gate and row 20's four-flag count. Both systems are satisfiable, and row
// 20's failure verdict (and its hybrid-rescue premise) rests on the solver
// giving up on them, so a faster solver must still spend the same budget
// and give up — cold and with a warm memo.
func TestCorpusBudgetBoundary(t *testing.T) {
	sym := expr.Sym
	k := expr.Const
	eq := func(x *expr.Expr, v uint64) *expr.Expr { return expr.Bin(expr.OpEq, x, k(v)) }
	magic := func(m string) []*expr.Expr {
		var cs []*expr.Expr
		for i := range len(m) {
			cs = append(cs, eq(sym(i), uint64(m[i])))
		}
		return cs
	}
	word := func(lo, hi int) *expr.Expr {
		return expr.Bin(expr.OpOr, sym(lo), expr.Bin(expr.OpShl, sym(hi), k(8)))
	}
	prod := expr.Bin(expr.OpMul, expr.Bin(expr.OpMul, word(4, 5), word(6, 7)), sym(8))
	flags := expr.Bin(expr.OpAnd, sym(4), k(1))
	for i := 5; i <= 7; i++ {
		flags = expr.Bin(expr.OpAdd, flags, expr.Bin(expr.OpAnd, sym(i), k(1)))
	}
	rows := []struct {
		row  int
		cs   []*expr.Expr
		text string
	}{
		{5, append(magic("MTJ0"),
			eq(expr.Bin(expr.OpAnd, prod, k(0xffffffff)), 0),
			expr.Bin(expr.OpLt, k(0), prod)),
			"(in[0] == 0x4d) && (in[1] == 0x54) && (in[2] == 0x4a) && (in[3] == 0x30) && " +
				"(((((in[4] | (in[5] << 0x8)) * (in[6] | (in[7] << 0x8))) * in[8]) & 0xffffffff) == 0x0) && " +
				"(0x0 <u (((in[4] | (in[5] << 0x8)) * (in[6] | (in[7] << 0x8))) * in[8]))"},
		{20, append(magic("TMG1"), expr.Bin(expr.OpLe, k(4), flags)),
			"(in[0] == 0x54) && (in[1] == 0x4d) && (in[2] == 0x47) && (in[3] == 0x31) && " +
				"(0x4 <=u ((((in[4] & 0x1) + (in[5] & 0x1)) + (in[6] & 0x1)) + (in[7] & 0x1)))"},
	}
	for _, r := range rows {
		var parts []string
		for _, c := range r.cs {
			parts = append(parts, c.String())
		}
		if got := strings.Join(parts, " && "); got != r.text {
			t.Fatalf("row %d system drifted from the corpus check:\n got %s\nwant %s", r.row, got, r.text)
		}
		s := Solver{Cache: NewCache(0)}
		for _, pass := range []string{"cold", "warm"} {
			if _, err := s.Sat(r.cs); !errors.Is(err, ErrBudget) {
				t.Errorf("row %d (%s memo): Sat error = %v, want ErrBudget at DefaultBudget", r.row, pass, err)
			}
		}
	}
}
