package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"octopocs/internal/expr"
)

func TestDecomposeWordEquality(t *testing.T) {
	// in0 | in1<<8 | in2<<16 == 0x00CCBBAA must split into three byte
	// equalities.
	word := expr.Bin(expr.OpOr,
		expr.Bin(expr.OpOr,
			expr.Sym(0),
			expr.Bin(expr.OpShl, expr.Sym(1), expr.Const(8))),
		expr.Bin(expr.OpShl, expr.Sym(2), expr.Const(16)))
	cs := decompose(nil, []*expr.Expr{expr.Bin(expr.OpEq, word, expr.Const(0xCCBBAA))})
	if len(cs) != 3 {
		t.Fatalf("decomposed into %d constraints, want 3: %v", len(cs), cs)
	}
	for _, c := range cs {
		if len(c.Syms()) != 1 {
			t.Errorf("constraint %v not single-symbol", c)
		}
	}
}

func TestDecomposeDetectsImpossibleBits(t *testing.T) {
	// Bits outside the representable mask make the equality impossible.
	word := expr.Bin(expr.OpOr, expr.Sym(0), expr.Bin(expr.OpShl, expr.Sym(1), expr.Const(8)))
	cs := decompose(nil, []*expr.Expr{expr.Bin(expr.OpEq, word, expr.Const(0x1_0000))})
	if len(cs) != 1 {
		t.Fatalf("constraints = %v", cs)
	}
	if v, ok := cs[0].IsConst(); !ok || v != 0 {
		t.Errorf("impossible equality should fold to constant 0, got %v", cs[0])
	}
}

func TestDecomposeShiftLowBits(t *testing.T) {
	// (in0 << 8) == 0x1234 is impossible: low bits set.
	c := expr.Bin(expr.OpEq, expr.Bin(expr.OpShl, expr.Sym(0), expr.Const(8)), expr.Const(0x1234))
	cs := decompose(nil, []*expr.Expr{c})
	if v, ok := cs[0].IsConst(); !ok || v != 0 {
		t.Errorf("want constant-0, got %v", cs[0])
	}
	// (in0 << 8) == 0x1200 pins in0 == 0x12.
	c = expr.Bin(expr.OpEq, expr.Bin(expr.OpShl, expr.Sym(0), expr.Const(8)), expr.Const(0x1200))
	cs = decompose(nil, []*expr.Expr{c})
	want := expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(0x12))
	if len(cs) != 1 || !cs[0].Equal(want) {
		t.Errorf("got %v, want %v", cs, want)
	}
}

func TestDecomposeAddXor(t *testing.T) {
	cs := decompose(nil, []*expr.Expr{
		expr.Bin(expr.OpEq, expr.Bin(expr.OpAdd, expr.Sym(0), expr.Const(5)), expr.Const(12)),
		expr.Bin(expr.OpEq, expr.Bin(expr.OpXor, expr.Sym(1), expr.Const(0xF0)), expr.Const(0xFF)),
	})
	if !cs[0].Equal(expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(7))) {
		t.Errorf("add inversion: %v", cs[0])
	}
	if !cs[1].Equal(expr.Bin(expr.OpEq, expr.Sym(1), expr.Const(0x0F))) {
		t.Errorf("xor inversion: %v", cs[1])
	}
}

func TestDecomposeLeavesOthersAlone(t *testing.T) {
	keep := []*expr.Expr{
		expr.Bin(expr.OpLt, expr.Sym(0), expr.Const(9)),
		expr.Bin(expr.OpNe, expr.Sym(0), expr.Sym(1)),
		expr.Bin(expr.OpEq, expr.Sym(0), expr.Sym(1)), // rhs not const
	}
	cs := decompose(nil, keep)
	if len(cs) != len(keep) {
		t.Fatalf("constraints = %v", cs)
	}
	for i := range keep {
		if cs[i] != keep[i] {
			t.Errorf("constraint %d was rewritten: %v", i, cs[i])
		}
	}
}

// Property: decomposition preserves satisfaction for every assignment.
func TestDecomposeEquisatisfiable(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random word shape over ≤4 bytes compared to a random constant.
		var word *expr.Expr
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			part := expr.Bin(expr.OpShl, expr.Sym(i), expr.Const(uint64(8*i)))
			if word == nil {
				word = part
			} else {
				word = expr.Bin(expr.OpOr, word, part)
			}
		}
		c := expr.Bin(expr.OpEq, word, expr.Const(rng.Uint64()>>(64-8*n)))
		cs := decompose(nil, []*expr.Expr{c})

		input := make([]byte, 4)
		rng.Read(input)
		orig := c.EvalConcrete(input) != 0
		all := true
		for _, d := range cs {
			all = all && d.EvalConcrete(input) != 0
		}
		return orig == all
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMaskReasoning(t *testing.T) {
	tests := []struct {
		e    *expr.Expr
		want uint64
		ok   bool
	}{
		{expr.Sym(0), 0xFF, true},
		{expr.Const(0x1234), 0x1234, true},
		{expr.Bin(expr.OpShl, expr.Sym(0), expr.Const(8)), 0xFF00, true},
		{expr.Bin(expr.OpOr, expr.Sym(0), expr.Bin(expr.OpShl, expr.Sym(1), expr.Const(8))), 0xFFFF, true},
		{expr.Bin(expr.OpAnd, expr.Sym(0), expr.Const(0x0F)), 0x0F, true},
		{expr.Bin(expr.OpEq, expr.Sym(0), expr.Sym(1)), 1, true},
		// Sums of bounded values get a power-of-two bound.
		{expr.Bin(expr.OpAdd, expr.Sym(0), expr.Sym(1)), 0x1FF, true},
	}
	for _, tt := range tests {
		got, ok := tt.e.Mask()
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("Mask(%v) = %#x,%v want %#x,%v", tt.e, got, ok, tt.want, tt.ok)
		}
	}
}
