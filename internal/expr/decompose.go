package expr

// AppendDecomposed appends to out conjuncts whose conjunction is
// equivalent to e. The important case is word equality over concatenated
// input bytes — Eq(b0 | b1<<8 | ..., C) — produced whenever a parser
// compares a multi-byte load against a magic number: it splits into
// independent per-byte equalities, which the solver's propagation then
// solves without search.
//
// Rewrites (x is any expression, c/k constants):
//
//	Eq(Or(a,b), c)  → Eq(a, c&maskA), Eq(b, c&maskB)   when masks disjoint
//	                  (and the constant 0 when c has bits outside maskA|maskB)
//	Eq(Shl(a,k), c) → Eq(a, c>>k)     (the constant 0 when c has low bits set)
//	Eq(Add(a,k), c) → Eq(a, c-k)
//	Eq(Xor(a,k), c) → Eq(a, c^k)
//
// A node no rewrite applies to is appended as it is. The conjuncts of a
// node that splits are built once and cached on it, so a path constraint
// re-sent to every feasibility check yields the same nodes each time, and
// with them the same cached programs, supports and fingerprints.
func AppendDecomposed(out []*Expr, e *Expr) []*Expr {
	if p := e.parts.Load(); p != nil {
		return append(out, *p...)
	}
	step, n := decomposeStep(e)
	if n == 0 {
		return append(out, e)
	}
	var parts []*Expr
	for _, s := range step[:n] {
		parts = AppendDecomposed(parts, s)
	}
	e.parts.Store(&parts)
	return append(out, parts...)
}

// decomposeStep applies one rewrite to e, returning its n results; n is 0
// when none applies.
func decomposeStep(e *Expr) (step [2]*Expr, n int) {
	if e.Op != OpEq {
		return step, 0
	}
	lhs := e.X
	cv, ok := e.Y.IsConst()
	if !ok {
		return step, 0
	}
	switch lhs.Op {
	case OpOr:
		ma, okA := lhs.X.Mask()
		mb, okB := lhs.Y.Mask()
		if okA && okB && ma&mb == 0 {
			if cv&^(ma|mb) != 0 {
				return [2]*Expr{Zero}, 1 // impossible
			}
			return [2]*Expr{Bin(OpEq, lhs.X, Const(cv&ma)), Bin(OpEq, lhs.Y, Const(cv&mb))}, 2
		}
	case OpShl:
		if k, ok := lhs.Y.IsConst(); ok && k < 64 {
			if cv&((1<<k)-1) != 0 {
				return [2]*Expr{Zero}, 1
			}
			if m, ok := lhs.X.Mask(); ok && m<<k>>k == m {
				return [2]*Expr{Bin(OpEq, lhs.X, Const(cv>>k))}, 1
			}
		}
	case OpAdd:
		if k, ok := lhs.Y.IsConst(); ok {
			return [2]*Expr{Bin(OpEq, lhs.X, Const(cv-k))}, 1
		}
	case OpXor:
		if k, ok := lhs.Y.IsConst(); ok {
			return [2]*Expr{Bin(OpEq, lhs.X, Const(cv^k))}, 1
		}
	}
	return step, 0
}
