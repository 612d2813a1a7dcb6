package solver

import (
	"math"
	"math/bits"

	"octopocs/internal/expr"
)

// decided bounds constraint ci over the current box — each assigned
// symbol at its value, each unassigned one anywhere in [min D, max D] —
// and, when the bound proves it non-zero at every point or zero at every
// point, returns the outcome enumeration would reach, with its
// evaluation count. Enumeration evaluates every value of a lone symbol
// once, keeping all of D or none. For a pair, an always-true constraint
// finds each value's support at the first value of the other side,
// |Da|+|Db| evaluations that narrow nothing; an always-false one scans
// both cross products, 2·|Da|·|Db| evaluations, and empties both domains.
// A box on which some evaluation may fail (a division whose divisor range
// holds 0) is never decided: enumeration keeps such undecidable values.
func (st *state) decided(ci int, un []int) (outcome, bool) {
	if st.noInterval {
		return outcome{}, false
	}
	lo, hi, ok := st.bound(st.constraints[ci])
	if !ok || (lo == 0 && hi != 0) {
		return outcome{}, false
	}
	always := lo > 0
	var o outcome
	if len(un) == 1 {
		o.evals = int64(st.domains[un[0]].count())
		if always {
			o.doms[0] = st.domains[un[0]]
		}
		return o, true
	}
	na, nb := int64(st.domains[un[0]].count()), int64(st.domains[un[1]].count())
	if always {
		o.doms = [2]domain{st.domains[un[0]], st.domains[un[1]]}
		o.evals = na + nb
	} else {
		o.evals = 2 * na * nb
	}
	return o, true
}

// bound over-approximates the unsigned range of e over the current box.
// Every symbol occurrence is bounded independently: sound, and only ever
// loose, which leaves more constraints to enumeration. ok is false when
// some point of the box may make the evaluation fail.
func (st *state) bound(e *expr.Expr) (lo, hi uint64, ok bool) {
	switch e.Op {
	case expr.OpConst:
		return e.Val, e.Val, true
	case expr.OpSym:
		si := st.slot[e.Sym] - 1
		if st.assigned[si] {
			v := uint64(st.values[si])
			return v, v, true
		}
		d := &st.domains[si]
		first, nonEmpty := d.first()
		if !nonEmpty {
			return 0, 0, false
		}
		return uint64(first), uint64(d.last()), true
	}
	xlo, xhi, ok := st.bound(e.X)
	if !ok {
		return 0, 0, false
	}
	ylo, yhi, ok := st.bound(e.Y)
	if !ok {
		return 0, 0, false
	}
	if xlo == xhi && ylo == yhi {
		v, ok := expr.Apply(e.Op, xlo, ylo)
		return v, v, ok
	}
	return boundOp(e.Op, xlo, xhi, ylo, yhi)
}

// boundOp bounds x op y for x in [xlo, xhi] and y in [ylo, yhi]. Arithmetic
// that can wrap widens to the full range.
func boundOp(op expr.Op, xlo, xhi, ylo, yhi uint64) (lo, hi uint64, ok bool) {
	const full = math.MaxUint64
	switch op {
	case expr.OpAdd:
		if s, carry := bits.Add64(xhi, yhi, 0); carry == 0 {
			return xlo + ylo, s, true
		}
		return 0, full, true
	case expr.OpSub:
		if xlo >= yhi {
			return xlo - yhi, xhi - ylo, true
		}
		return 0, full, true
	case expr.OpMul:
		if h, l := bits.Mul64(xhi, yhi); h == 0 {
			return xlo * ylo, l, true
		}
		return 0, full, true
	case expr.OpShl:
		if xhi == 0 {
			return 0, 0, true
		}
		if yhi < 64 && uint64(bits.Len64(xhi))+yhi <= 64 {
			return xlo << ylo, xhi << yhi, true
		}
		return 0, full, true
	case expr.OpShr:
		if ylo >= 64 {
			return 0, 0, true
		}
		if yhi >= 64 {
			return 0, xhi >> ylo, true
		}
		return xlo >> yhi, xhi >> ylo, true
	case expr.OpDiv:
		if ylo == 0 {
			return 0, 0, false
		}
		return xlo / yhi, xhi / ylo, true
	case expr.OpMod:
		if ylo == 0 {
			return 0, 0, false
		}
		if xhi < ylo {
			return xlo, xhi, true
		}
		return 0, min(xhi, yhi-1), true
	case expr.OpAnd:
		return 0, min(xhi, yhi), true
	case expr.OpOr:
		return max(xlo, ylo), smear(xhi | yhi), true
	case expr.OpXor:
		return 0, smear(xhi | yhi), true
	case expr.OpEq:
		if xhi < ylo || yhi < xlo {
			return 0, 0, true
		}
	case expr.OpNe:
		if xhi < ylo || yhi < xlo {
			return 1, 1, true
		}
	case expr.OpSLt, expr.OpSLe:
		// Below 2^63 signed and unsigned order coincide; above it the
		// signed order wraps, so leave the comparison undecided.
		if xhi>>63 != 0 || yhi>>63 != 0 {
			return 0, 1, true
		}
		if op == expr.OpSLt {
			op = expr.OpLt
		} else {
			op = expr.OpLe
		}
		return boundOp(op, xlo, xhi, ylo, yhi)
	case expr.OpLt:
		if xhi < ylo {
			return 1, 1, true
		}
		if xlo >= yhi {
			return 0, 0, true
		}
	case expr.OpLe:
		if xhi <= ylo {
			return 1, 1, true
		}
		if xlo > yhi {
			return 0, 0, true
		}
	default:
		return 0, full, true
	}
	return 0, 1, true
}

// smear sets every bit below the highest set bit of x: the largest value
// an Or or Xor of operands bounded by x's bit length can take.
func smear(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	return math.MaxUint64 >> bits.LeadingZeros64(x)
}
