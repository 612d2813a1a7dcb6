package solver

import "octopocs/internal/expr"

// decompose rewrites constraints into equivalent conjunctions of simpler
// ones before solving (expr.AppendDecomposed: word equalities over
// concatenated input bytes split into per-byte equalities) and appends
// them to out.
func decompose(out, cs []*expr.Expr) []*expr.Expr {
	for _, c := range cs {
		out = expr.AppendDecomposed(out, c)
	}
	return out
}
