package solver

import (
	"math"
	"math/rand"
	"testing"

	"octopocs/internal/expr"
)

// TestBoundOpSound samples operand ranges (small, near 2^64, straddling
// 2^63, arbitrary) and points inside them. Every evaluation that succeeds
// must land inside boundOp's range, and boundOp may report a range only
// when every sampled evaluation succeeds.
func TestBoundOpSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := append(append([]expr.Op{}, replayOps...), replayCmps...)
	pick := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(300))
		case 1:
			return ^uint64(rng.Intn(300))
		case 2:
			return 1<<63 + uint64(rng.Intn(600)) - 300
		default:
			return rng.Uint64()
		}
	}
	span := func() (lo, hi uint64) {
		lo, hi = pick(), pick()
		if lo > hi {
			lo, hi = hi, lo
		}
		return lo, hi
	}
	sample := func(lo, hi uint64) uint64 {
		switch {
		case rng.Intn(4) == 0:
			return lo
		case rng.Intn(3) == 0:
			return hi
		case hi-lo == math.MaxUint64:
			return rng.Uint64()
		}
		return lo + rng.Uint64()%(hi-lo+1)
	}
	for i := 0; i < 50_000; i++ {
		op := ops[rng.Intn(len(ops))]
		xlo, xhi := span()
		ylo, yhi := span()
		lo, hi, ok := boundOp(op, xlo, xhi, ylo, yhi)
		for j := 0; j < 8; j++ {
			x, y := sample(xlo, xhi), sample(ylo, yhi)
			v, evalOK := expr.Apply(op, x, y)
			if ok && (!evalOK || v < lo || v > hi) {
				t.Fatalf("%#x %v %#x = %#x (ok %v), outside bound [%#x, %#x] for x in [%#x, %#x], y in [%#x, %#x]",
					x, op, y, v, evalOK, lo, hi, xlo, xhi, ylo, yhi)
			}
		}
	}
}

// TestFilterMemoStores checks that a solve with a Cache attached records
// its filter outcomes, so the replay path FuzzSolverExactReplay compares
// against enumeration is really taken.
func TestFilterMemoStores(t *testing.T) {
	cs := []*expr.Expr{
		expr.Bin(expr.OpEq, expr.Bin(expr.OpAdd, expr.Sym(0), expr.Sym(1)), expr.Const(300)),
		expr.Bin(expr.OpLt, expr.Sym(0), expr.Sym(1)),
	}
	s := Solver{Cache: NewCache(0)}
	cold, err := s.Solve(cs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache.filter.len() == 0 {
		t.Fatal("solve stored no filter outcomes")
	}
	warm, err := s.Solve(cs)
	if err != nil || warm[0] != cold[0] || warm[1] != cold[1] {
		t.Fatalf("warm solve = %v, %v; cold %v", warm, err, cold)
	}
	if st := s.Cache.Stats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("filter memo leaked into the verdict accounting: %+v", st)
	}
}
