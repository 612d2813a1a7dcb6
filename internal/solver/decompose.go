package solver

import "octopocs/internal/expr"

// decompose rewrites constraints into equivalent conjunctions of simpler
// ones before solving. The important case is word equality over
// concatenated input bytes — Eq(b0 | b1<<8 | ..., C) — produced whenever a
// parser compares a multi-byte load against a magic number: it splits into
// independent per-byte equalities, which propagation then solves without
// search.
//
// Rewrites (x is any expression, c/k constants):
//
//	Eq(Or(a,b), c)  → Eq(a, c&maskA), Eq(b, c&maskB)   when masks disjoint
//	                  (and UNSAT when c has bits outside maskA|maskB)
//	Eq(Shl(a,k), c) → Eq(a, c>>k)     (UNSAT when c has low bits set)
//	Eq(Add(a,k), c) → Eq(a, c-k)
//	Eq(Xor(a,k), c) → Eq(a, c^k)
//
// The rewritten constraints are appended to out.
func decompose(out, cs []*expr.Expr) []*expr.Expr {
	for _, c := range cs {
		out = appendDecomposed(out, c)
	}
	return out
}

func appendDecomposed(out []*expr.Expr, c *expr.Expr) []*expr.Expr {
	if c.Op != expr.OpEq {
		return append(out, c)
	}
	lhs, rhs := c.X, c.Y
	cv, ok := rhs.IsConst()
	if !ok {
		return append(out, c)
	}
	switch lhs.Op {
	case expr.OpOr:
		ma, okA := lhs.X.Mask()
		mb, okB := lhs.Y.Mask()
		if okA && okB && ma&mb == 0 {
			if cv&^(ma|mb) != 0 {
				return append(out, expr.Zero) // impossible
			}
			out = appendDecomposed(out, expr.Bin(expr.OpEq, lhs.X, expr.Const(cv&ma)))
			return appendDecomposed(out, expr.Bin(expr.OpEq, lhs.Y, expr.Const(cv&mb)))
		}
	case expr.OpShl:
		if k, ok := lhs.Y.IsConst(); ok && k < 64 {
			if cv&((1<<k)-1) != 0 {
				return append(out, expr.Zero)
			}
			if m, ok := lhs.X.Mask(); ok && m<<k>>k == m {
				return appendDecomposed(out, expr.Bin(expr.OpEq, lhs.X, expr.Const(cv>>k)))
			}
		}
	case expr.OpAdd:
		if k, ok := lhs.Y.IsConst(); ok {
			return appendDecomposed(out, expr.Bin(expr.OpEq, lhs.X, expr.Const(cv-k)))
		}
	case expr.OpXor:
		if k, ok := lhs.Y.IsConst(); ok {
			return appendDecomposed(out, expr.Bin(expr.OpEq, lhs.X, expr.Const(cv^k)))
		}
	}
	return append(out, c)
}
