package expr

import (
	"slices"
	"testing"
)

// residualOps are every binary operator, comparisons included, indexed by
// residualTree's 4-bit operator field.
var residualOps = []Op{
	OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor,
	OpShl, OpShr, OpEq, OpNe, OpLt, OpLe, OpSLt, OpSLe,
}

// residualConst decodes a constant: small, near 2^64 (so sums and
// differences wrap), in the top byte (so signed order flips) or a repeated
// byte pair.
func residualConst(b, mode byte) uint64 {
	v := uint64(b)
	switch mode % 4 {
	case 1:
		v = ^v
	case 2:
		v <<= 56
	case 3:
		v |= v << 8
	}
	return v
}

// residualTree decodes one node from next. A node byte b with b%4 == 0 (or
// at depth 0) is a leaf [b, l]: symbol (l>>1)%3 when l is odd, else the
// constant [b, l, c] decoded from c in mode (l>>1)%4. Any other b is an
// operator node: residualOps[(b>>3)%16] over two decoded children, built
// through Bin, or as a raw node, bypassing Bin's simplification, when bit 2
// of b is set. raw reports whether any raw node was built.
func residualTree(next func() byte, depth int, raw *bool) *Expr {
	b := next()
	if depth == 0 || b%4 == 0 {
		l := next()
		if l&1 != 0 {
			return Sym(int(l>>1) % 3)
		}
		return Const(residualConst(next(), l>>1))
	}
	op := residualOps[int(b>>3)%len(residualOps)]
	x := residualTree(next, depth-1, raw)
	y := residualTree(next, depth-1, raw)
	if b&4 != 0 {
		*raw = true
		return &Expr{Op: op, X: x, Y: y}
	}
	return Bin(op, x, y)
}

// FuzzResidualVsEval checks Residual against Eval. The input is [inner,
// mask, v0, v1, v2, tree...]: symbol inner%3 is left open, each other
// symbol i reads v_i when bit i of mask is set and is unassigned
// otherwise. Whenever Residual reports a result that does not depend on
// the inner symbol, Eval must return exactly that (value, ok) for all 256
// of its values. In a tree built by Bin alone, a defined such result over a
// tree that mentions the inner symbol must come from a node MayAbsorb
// reports, since the solver folds only constraints that MayAbsorb admits.
func FuzzResidualVsEval(f *testing.F) {
	// ((in[0] == 0x7f) & (in[1] == 0x0)) != 0 with in[0] = 0x7e: row 3's
	// shape, false for every value of in[1].
	row3 := []byte{89, 41, 81, 0, 1, 0, 0, 0x7f, 81, 0, 3, 0, 0, 0, 0, 0, 0}
	f.Add(append([]byte{1, 1, 0x7e, 0, 0}, row3...))
	// The same at in[0] = 0x7f, where in[1] decides it.
	f.Add(append([]byte{1, 1, 0x7f, 0, 0}, row3...))
	// ((in[0] & 0x80) & (100 / in[1])) != 0 with in[0] = 0: And by 0, but
	// the absorbed side fails at in[1] = 0, so nothing folds.
	f.Add([]byte{1, 1, 0, 0, 0, 89, 41, 41, 0, 1, 0, 0, 0x80, 25, 0, 0, 100, 0, 3, 0, 0, 0})
	// (100 / in[0]) + in[1] with in[0] = 0: undefined for every in[1].
	f.Add([]byte{1, 1, 0, 0, 0, 1, 25, 0, 0, 100, 0, 1, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		inner := int(next()) % 3
		mask := next()
		vals := [3]uint64{uint64(next()), uint64(next()), uint64(next())}
		var raw bool
		e := residualTree(next, 5, &raw)
		lookup := func(sym int) (uint64, bool) {
			if sym < 0 || sym >= len(vals) || mask&(1<<sym) == 0 {
				return 0, false
			}
			return vals[sym], true
		}
		v, ok, konst := e.Residual(lookup, inner)
		if !konst {
			return
		}
		for x := uint64(0); x < 256; x++ {
			gv, gok := e.Eval(func(sym int) (uint64, bool) {
				if sym == inner {
					return x, true
				}
				return lookup(sym)
			})
			if gv != v || gok != ok {
				t.Fatalf("%v with in[%d] = %d: Eval = (%#x, %v); Residual = (%#x, %v)", e, inner, x, gv, gok, v, ok)
			}
		}
		if ok && !raw && slices.Contains(e.Syms(), inner) && !e.MayAbsorb() {
			t.Fatalf("%v: Residual folded in[%d] away but MayAbsorb is false", e, inner)
		}
	})
}

// TestResidualFolds pins where Residual drops the inner symbol and where it
// must not.
func TestResidualFolds(t *testing.T) {
	eq := func(x *Expr, v uint64) *Expr { return Bin(OpEq, x, Const(v)) }
	row3 := Bin(OpNe, Bin(OpAnd, eq(Sym(2), 0x7f), eq(Sym(3), 0)), Zero)
	divides := Bin(OpNe, Bin(OpAnd, Bin(OpAnd, Sym(2), Const(0x80)), Bin(OpDiv, Const(100), Sym(3))), Zero)
	mixmul := eq(Bin(OpAnd, Bin(OpAdd, Bin(OpMul, Sym(2), Const(17)), Bin(OpMul, Sym(3), Const(31))), Const(63)), 5)
	undefined := Bin(OpAdd, Bin(OpDiv, Const(100), Sym(2)), Sym(3))
	at := func(v uint64) func(int) (uint64, bool) {
		return func(sym int) (uint64, bool) { return v, sym == 2 }
	}
	tests := []struct {
		name      string
		e         *Expr
		outer     uint64
		v         uint64
		ok, konst bool
		mayAbsorb bool
	}{
		{"row 3, outer misses", row3, 0x7e, 0, true, true, true},
		{"row 3, outer hits", row3, 0x7f, 0, false, false, true},
		{"absorbed side may fail", divides, 0, 0, false, false, true},
		{"absorbed side defined", divides, 0x80, 0, false, false, true},
		{"mixmul cannot fold", mixmul, 3, 0, false, false, false},
		{"undefined for every inner value", undefined, 0, 0, false, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, ok, konst := tt.e.Residual(at(tt.outer), 3)
			if v != tt.v || ok != tt.ok || konst != tt.konst {
				t.Errorf("Residual(%v) at in[2] = %#x = (%#x, %v, %v), want (%#x, %v, %v)",
					tt.e, tt.outer, v, ok, konst, tt.v, tt.ok, tt.konst)
			}
			if got := tt.e.MayAbsorb(); got != tt.mayAbsorb {
				t.Errorf("MayAbsorb(%v) = %v, want %v", tt.e, got, tt.mayAbsorb)
			}
		})
	}
}
