// Package absint is the abstract-interpretation value-range layer: a
// forward dataflow pass over MIR computing, per block and per register, a
// reduced product of an unsigned interval domain and a congruence domain
// (value ≡ R mod M), with sound joins and widening at loop heads.
//
// The results serve the P2 preparation twice over: they are the one source
// of mirstatic's branch folds and dead blocks (constants, and beyond them
// e.g. x&1 == 0 after an even-stride loop), and symex consults the
// per-branch proofs as a static oracle that discharges feasibility checks
// before the solver ever runs. Transfer functions cover the full
// ISA; anything unknown widens to ⊤ and the analysis never kills a path,
// so a ⊤-respecting consumer can only skip work, never change a verdict.
// P1, P3 and P4 are untouched.
//
// Concurrency: Analyze runs on one goroutine; the Result it returns is
// immutable and safe for unsynchronized concurrent reads, which is how
// parallel frontier workers share one branch oracle.
package absint

import (
	"fmt"
	"math/bits"

	"octopocs/internal/isa"
)

const top = ^uint64(0)

// Val is one abstract value: the reduced product of an unsigned interval
// [Lo, Hi] and a congruence class (value ≡ R mod M).
//
// Representation invariants, established by norm:
//   - Lo <= Hi always.
//   - M == 0: the value is the constant R, and Lo == Hi == R.
//   - M == 1: no congruence information; R == 0.
//   - M >= 2: every concrete value v satisfies v % M == R, with R < M, and
//     Lo and Hi themselves lie in the congruence class.
//
// The zero Val is Const(0), so fresh register files start sound for the
// VM's zero-initialized registers.
type Val struct {
	Lo, Hi uint64
	M, R   uint64
}

// Top returns the unconstrained value ⊤.
func Top() Val { return Val{0, top, 1, 0} }

// Const returns the singleton abstraction of v.
func Const(v uint64) Val { return Val{v, v, 0, v} }

// Range returns the interval [lo, hi] with no congruence information.
func Range(lo, hi uint64) Val { return norm(lo, hi, 1, 0) }

// norm establishes the representation invariants for an interval plus
// congruence pair, reducing the product: the interval endpoints are pulled
// onto the congruence class, and a singleton collapses to a constant. An
// inconsistent pair (empty concretization) widens to ⊤, which is sound:
// such a state is only ever computed for vacuously unreachable code.
func norm(lo, hi, m, r uint64) Val {
	if lo > hi {
		return Top()
	}
	if m == 0 {
		if lo != hi {
			m, r = 1, 0
		} else {
			return Val{lo, lo, 0, lo}
		}
	}
	if m == 1 {
		r = 0
	} else {
		r %= m
		lm := lo % m
		var d uint64
		if lm <= r {
			d = r - lm
		} else {
			d = m - (lm - r)
		}
		if d > hi-lo {
			return Top() // no value in [lo,hi] is ≡ r (mod m)
		}
		lo += d
		hm := hi % m
		if hm >= r {
			hi -= hm - r
		} else {
			hi -= m - (r - hm)
		}
	}
	if lo == hi {
		return Val{lo, lo, 0, lo}
	}
	return Val{lo, hi, m, r}
}

// IsConst reports whether v abstracts exactly one value, and which.
func (v Val) IsConst() (uint64, bool) {
	if v.M == 0 {
		return v.R, true
	}
	return 0, false
}

// IsTop reports whether v carries no information at all.
func (v Val) IsTop() bool { return v.Lo == 0 && v.Hi == top && v.M == 1 }

// Contains reports whether the concrete value x lies in v's concretization.
// This is the soundness predicate the differential fuzz target checks.
func (v Val) Contains(x uint64) bool {
	if x < v.Lo || x > v.Hi {
		return false
	}
	switch {
	case v.M == 0:
		return x == v.R
	case v.M == 1:
		return true
	default:
		return x%v.M == v.R
	}
}

// congr projects v onto the congruence lattice, where modulus 0 encodes a
// constant (the class {r}).
func (v Val) congr() (m, r uint64) {
	if v.M == 0 {
		return 0, v.R
	}
	return v.M, v.R
}

// Decide classifies v as a branch condition: +1 if provably nonzero, -1 if
// provably zero, 0 if unknown.
func (v Val) Decide() int {
	if c, ok := v.IsConst(); ok {
		if c != 0 {
			return 1
		}
		return -1
	}
	if v.Lo >= 1 {
		return 1
	}
	if v.M > 1 && v.R != 0 {
		return 1 // 0 is not in the congruence class
	}
	return 0
}

// String renders v compactly: "T", a constant, "[lo,hi]", or
// "[lo,hi] mod m = r".
func (v Val) String() string {
	if v.IsTop() {
		return "T"
	}
	if c, ok := v.IsConst(); ok {
		return fmt.Sprintf("%d", c)
	}
	var s string
	if v.Hi == top {
		s = fmt.Sprintf("[%d,max]", v.Lo)
	} else {
		s = fmt.Sprintf("[%d,%d]", v.Lo, v.Hi)
	}
	if v.M > 1 {
		s += fmt.Sprintf(" mod %d = %d", v.M, v.R)
	}
	return s
}

// Join returns the least upper bound of a and b: the enclosing interval and
// the Granger join of the congruences (g = gcd(Ma, Mb, |Ra-Rb|)).
func Join(a, b Val) Val {
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	am, ar := a.congr()
	bm, br := b.congr()
	g := gcd(gcd(am, bm), absDiff(ar, br))
	r := ar
	if g != 0 {
		r = ar % g
	}
	return norm(lo, hi, g, r)
}

// Widen accelerates convergence at loop heads: any endpoint that moved
// since prev jumps straight to its extreme. The congruence component needs
// no widening — its join walks a strictly decreasing divisor chain, which
// is finite.
func Widen(prev, next Val) Val {
	j := Join(prev, next)
	lo, hi := j.Lo, j.Hi
	if lo < prev.Lo {
		lo = 0
	}
	if hi > prev.Hi {
		hi = top
	}
	m, r := j.congr()
	return norm(lo, hi, m, r)
}

// ---- arithmetic helpers ----

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}

func pow2(g uint64) bool { return g != 0 && g&(g-1) == 0 }

// addMod returns (x + y) mod m for x, y < m, without overflow.
func addMod(x, y, m uint64) uint64 {
	s, c := bits.Add64(x, y, 0)
	if c == 1 || s >= m {
		s -= m
	}
	return s
}

// subMod returns (x - y) mod m for x, y < m.
func subMod(x, y, m uint64) uint64 {
	if x >= y {
		return x - y
	}
	return m - (y - x)
}

// mulMod returns (x * y) mod m for x, y < m, via the 128-bit product.
func mulMod(x, y, m uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	_, r := bits.Div64(hi, lo, m)
	return r
}

// mulCheck returns x*y and whether it fit in 64 bits.
func mulCheck(x, y uint64) (uint64, bool) {
	hi, lo := bits.Mul64(x, y)
	return lo, hi == 0
}

// ---- transfer functions ----

// binConst mirrors the VM's binOp exactly; ok is false when the operation
// traps (division by zero) or the operator is unknown.
func binConst(op isa.BinOp, a, b uint64) (v uint64, ok bool) {
	switch op {
	case isa.Add:
		return a + b, true
	case isa.Sub:
		return a - b, true
	case isa.Mul:
		return a * b, true
	case isa.Div:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case isa.Mod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case isa.And:
		return a & b, true
	case isa.Or:
		return a | b, true
	case isa.Xor:
		return a ^ b, true
	case isa.Shl:
		if b >= 64 {
			return 0, true
		}
		return a << b, true
	case isa.Shr:
		if b >= 64 {
			return 0, true
		}
		return a >> b, true
	default:
		return 0, false
	}
}

// cmpConst mirrors the VM's cmpOp exactly; ok is false for an unknown
// comparator.
func cmpConst(op isa.CmpOp, a, b uint64) (v uint64, ok bool) {
	var t bool
	switch op {
	case isa.Eq:
		t = a == b
	case isa.Ne:
		t = a != b
	case isa.Lt:
		t = a < b
	case isa.Le:
		t = a <= b
	case isa.Gt:
		t = a > b
	case isa.Ge:
		t = a >= b
	case isa.SLt:
		t = int64(a) < int64(b)
	case isa.SLe:
		t = int64(a) <= int64(b)
	default:
		return 0, false
	}
	if t {
		return 1, true
	}
	return 0, true
}

// Bin abstracts dst = a <op> b. Constant operands fold through the exact VM
// semantics; a folding that traps (div/mod by zero) yields ⊤, which is
// sound because no execution survives to observe the destination.
//
// Wrapping rule: arithmetic is mod 2^64, and a congruence class mod g
// survives wrapping only when g is a power of two (g divides 2^64) or no
// operand pair can wrap; every transfer below enforces this before keeping
// congruence information.
func Bin(op isa.BinOp, a, b Val) Val {
	if av, aok := a.IsConst(); aok {
		if bv, bok := b.IsConst(); bok {
			if v, ok := binConst(op, av, bv); ok {
				return Const(v)
			}
			return Top()
		}
	}
	switch op {
	case isa.Add:
		return vAdd(a, b)
	case isa.Sub:
		return vSub(a, b)
	case isa.Mul:
		return vMul(a, b)
	case isa.Div:
		return vDiv(a, b)
	case isa.Mod:
		return vMod(a, b)
	case isa.And:
		return vAnd(a, b)
	case isa.Or:
		return vOr(a, b)
	case isa.Xor:
		return vXor(a, b)
	case isa.Shl:
		return vShl(a, b)
	case isa.Shr:
		return vShr(a, b)
	default:
		// Unknown operator: widen to ⊤, never halt.
		return Top()
	}
}

func vAdd(a, b Val) Val {
	lo, cLo := bits.Add64(a.Lo, b.Lo, 0)
	hi, cHi := bits.Add64(a.Hi, b.Hi, 0)
	am, ar := a.congr()
	bm, br := b.congr()
	g := gcd(am, bm)
	if cHi != 0 && !pow2(g) {
		g = 1 // a wrap is possible and g does not divide 2^64
	}
	var r uint64
	if g > 1 {
		r = addMod(ar%g, br%g, g)
	}
	if cLo != cHi {
		// Some sums wrap and some do not: the image is not an interval.
		return norm(0, top, g, r)
	}
	// Either no sum wraps or every sum wraps (the true sums span less than
	// 2^64); either way [lo, hi] encloses the wrapped image.
	return norm(lo, hi, g, r)
}

func vSub(a, b Val) Val {
	lo, wLo := bits.Sub64(a.Lo, b.Hi, 0)
	hi, wHi := bits.Sub64(a.Hi, b.Lo, 0)
	am, ar := a.congr()
	bm, br := b.congr()
	g := gcd(am, bm)
	if wLo != 0 && !pow2(g) {
		g = 1 // a borrow is possible (a.Lo < b.Hi) and g is not pow2
	}
	var r uint64
	if g > 1 {
		r = subMod(ar%g, br%g, g)
	}
	if wLo != wHi {
		return norm(0, top, g, r)
	}
	return norm(lo, hi, g, r)
}

func vMul(a, b Val) Val {
	h, hiProd := bits.Mul64(a.Hi, b.Hi)
	overflow := h != 0
	lo, hi := uint64(0), top
	if !overflow {
		lo, hi = a.Lo*b.Lo, hiProd
	}
	am, ar := a.congr()
	bm, br := b.congr()
	// Granger product congruence: x·y ≡ Ra·Rb mod gcd(Ra·Mb, Rb·Ma, Ma·Mb).
	g := uint64(1)
	if t1, ok1 := mulCheck(ar, bm); ok1 {
		if t2, ok2 := mulCheck(br, am); ok2 {
			if t3, ok3 := mulCheck(am, bm); ok3 {
				g = gcd(gcd(t1, t2), t3)
			}
		}
	}
	if overflow && !pow2(g) {
		g = 1
	}
	var r uint64
	if g > 1 {
		r = mulMod(ar%g, br%g, g)
	}
	return norm(lo, hi, g, r)
}

func vDiv(a, b Val) Val {
	if c, ok := b.IsConst(); ok {
		if c == 0 {
			return Top() // every execution traps; nothing to constrain
		}
		lo, hi := a.Lo/c, a.Hi/c
		am, ar := a.congr()
		if am > 0 && am%c == 0 && ar%c == 0 {
			// x = ar + k·am with c | am and c | ar divides exactly.
			return norm(lo, hi, am/c, ar/c)
		}
		return norm(lo, hi, 1, 0)
	}
	if b.Hi == 0 {
		return Top() // the only possible divisor traps
	}
	bl := b.Lo
	if bl == 0 {
		bl = 1 // surviving executions divide by at least 1
	}
	return norm(a.Lo/b.Hi, a.Hi/bl, 1, 0)
}

func vMod(a, b Val) Val {
	if c, ok := b.IsConst(); ok {
		if c == 0 {
			return Top()
		}
		if a.Hi < c {
			return a // identity: already reduced
		}
		am, ar := a.congr()
		if am > 0 && am%c == 0 {
			// x ≡ ar (mod am) and c | am pin the remainder exactly.
			return Const(ar % c)
		}
		return norm(0, c-1, 1, 0)
	}
	if b.Hi == 0 {
		return Top()
	}
	return norm(0, b.Hi-1, 1, 0)
}

func vAnd(a, b Val) Val {
	if _, ok := a.IsConst(); ok {
		a, b = b, a
	}
	if c, ok := b.IsConst(); ok {
		if c == top {
			return a // identity mask
		}
		if mask := c + 1; mask&(mask-1) == 0 {
			// c = 2^k - 1: x & c == x mod 2^k.
			if a.Hi <= c {
				return a
			}
			am, ar := a.congr()
			if am > 0 && am%mask == 0 {
				return Const(ar & c) // the even-stride case: x&1 after i += 2
			}
		}
		hi := c
		if a.Hi < hi {
			hi = a.Hi
		}
		return norm(0, hi, 1, 0)
	}
	hi := a.Hi
	if b.Hi < hi {
		hi = b.Hi
	}
	return norm(0, hi, 1, 0)
}

// orCeil bounds x|y from above: the all-ones value of the wider operand's
// bit length.
func orCeil(x, y uint64) uint64 {
	n := bits.Len64(x | y)
	if n >= 64 {
		return top
	}
	return uint64(1)<<n - 1
}

func vOr(a, b Val) Val {
	lo := a.Lo
	if b.Lo > lo {
		lo = b.Lo
	}
	return norm(lo, orCeil(a.Hi, b.Hi), 1, 0)
}

func vXor(a, b Val) Val {
	return norm(0, orCeil(a.Hi, b.Hi), 1, 0)
}

func vShl(a, b Val) Val {
	if c, ok := b.IsConst(); ok {
		if c >= 64 {
			return Const(0)
		}
		if c == 0 {
			return a
		}
		g := uint64(1) << c // x<<c ≡ 0 mod 2^c even after wrapping
		if a.Hi>>(64-c) != 0 {
			return norm(0, top, g, 0) // shift can overflow
		}
		am, ar := a.congr()
		if am > 0 {
			if m2, ok2 := mulCheck(am, g); ok2 {
				if r2, ok3 := mulCheck(ar, g); ok3 {
					return norm(a.Lo<<c, a.Hi<<c, m2, r2)
				}
			}
		}
		return norm(a.Lo<<c, a.Hi<<c, g, 0)
	}
	if b.Lo >= 64 {
		return Const(0) // every shift amount zeroes the value
	}
	// Any amount >= b.Lo leaves at least b.Lo low zero bits (a >=64 shift
	// gives 0, which is in every pow2 class).
	return norm(0, top, uint64(1)<<b.Lo, 0)
}

func vShr(a, b Val) Val {
	if c, ok := b.IsConst(); ok {
		if c >= 64 {
			return Const(0)
		}
		return norm(a.Lo>>c, a.Hi>>c, 1, 0)
	}
	return norm(0, a.Hi, 1, 0)
}

// boolTop is the unknown comparison result.
func boolTop() Val { return norm(0, 1, 1, 0) }

// disjoint reports whether a and b provably share no concrete value:
// separated intervals, or incompatible congruences modulo gcd(Ma, Mb).
func disjoint(a, b Val) bool {
	if a.Hi < b.Lo || b.Hi < a.Lo {
		return true
	}
	am, ar := a.congr()
	bm, br := b.congr()
	g := gcd(am, bm)
	return g > 1 && ar%g != br%g
}

// crossesSign reports whether v spans the signed boundary 2^63, in which
// case int64 casts of its endpoints do not bound the signed image.
func crossesSign(v Val) bool {
	const half = uint64(1) << 63
	return v.Lo < half && v.Hi >= half
}

// Cmp abstracts dst = (a <op> b), proving the result 0 or 1 where the
// domains allow and returning the unknown boolean otherwise.
func Cmp(op isa.CmpOp, a, b Val) Val {
	if av, aok := a.IsConst(); aok {
		if bv, bok := b.IsConst(); bok {
			if v, ok := cmpConst(op, av, bv); ok {
				return Const(v)
			}
			return boolTop()
		}
	}
	switch op {
	case isa.Eq:
		if disjoint(a, b) {
			return Const(0)
		}
	case isa.Ne:
		if disjoint(a, b) {
			return Const(1)
		}
	case isa.Lt:
		if a.Hi < b.Lo {
			return Const(1)
		}
		if a.Lo >= b.Hi {
			return Const(0)
		}
	case isa.Le:
		if a.Hi <= b.Lo {
			return Const(1)
		}
		if a.Lo > b.Hi {
			return Const(0)
		}
	case isa.Gt:
		if b.Hi < a.Lo {
			return Const(1)
		}
		if b.Lo >= a.Hi {
			return Const(0)
		}
	case isa.Ge:
		if b.Hi <= a.Lo {
			return Const(1)
		}
		if b.Lo > a.Hi {
			return Const(0)
		}
	case isa.SLt:
		if !crossesSign(a) && !crossesSign(b) {
			if int64(a.Hi) < int64(b.Lo) {
				return Const(1)
			}
			if int64(a.Lo) >= int64(b.Hi) {
				return Const(0)
			}
		}
	case isa.SLe:
		if !crossesSign(a) && !crossesSign(b) {
			if int64(a.Hi) <= int64(b.Lo) {
				return Const(1)
			}
			if int64(a.Lo) > int64(b.Hi) {
				return Const(0)
			}
		}
	default:
		// Unknown comparator: fall through to the unknown boolean.
	}
	return boolTop()
}
