// Package expr provides the symbolic expression language shared by the
// symbolic executor and the constraint solver (phases P2 and P3 build path
// conditions out of these nodes; P3.3 hands them to the solver). Expressions
// are immutable trees over 64-bit words whose leaves are constants and
// input-file byte symbols (each symbol ranges over 0..255, zero-extended to
// a word).
//
// Constructors simplify aggressively — constant folding, neutral and
// absorbing elements, constant re-association, comparison inversion — so
// that the constraints reaching the solver from file-format parsing code
// are mostly small byte-equality and range facts.
//
// Concurrency: nodes are immutable after construction and safe to share
// between goroutines. The lazily computed per-node caches (symbol support,
// possible-bits mask, structural fingerprint, the complement Not builds,
// the register program and the decomposition) are published with atomic
// operations; concurrent computation is idempotent up to node identity
// (two racing Not calls may each keep their own, structurally equal
// complement), so the worst case is duplicated work, never a torn read.
// This is what lets the parallel symbolic-execution frontier share
// expression trees between sibling states without cloning them.
package expr

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Op enumerates expression node kinds.
type Op uint8

// Node kinds. Comparison nodes evaluate to 0 or 1.
const (
	OpConst Op = iota + 1
	OpSym
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt // unsigned
	OpLe // unsigned
	OpSLt
	OpSLe
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpSym:
		return "sym"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpXor:
		return "^"
	case OpShl:
		return "<<"
	case OpShr:
		return ">>"
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<u"
	case OpLe:
		return "<=u"
	case OpSLt:
		return "<s"
	case OpSLe:
		return "<=s"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Expr is one immutable expression node. The unexported fields are lazy
// caches published atomically (see the package comment); everything else is
// written once by the constructor and never mutated.
type Expr struct {
	Op  Op
	Val uint64 // OpConst
	Sym int    // OpSym: input byte index
	X   *Expr
	Y   *Expr

	syms  atomic.Pointer[[]int]    // cached sorted support
	mask  atomic.Pointer[maskInfo] // cached possible-bits bound
	fp    atomic.Uint64            // cached structural fingerprint; 0 = unset
	not   atomic.Pointer[Expr]     // cached Not(e)
	prog  atomic.Pointer[Prog]     // cached register program
	parts atomic.Pointer[[]*Expr]  // cached decomposition, when e splits
}

// maskInfo is the cached result of computeMask.
type maskInfo struct {
	mask uint64
	ok   bool
}

// Const builds a constant.
func Const(v uint64) *Expr { return &Expr{Op: OpConst, Val: v} }

// Sym builds the symbol for input byte i.
func Sym(i int) *Expr { return &Expr{Op: OpSym, Sym: i} }

// One and Zero are the boolean constants produced by comparisons.
var (
	One  = Const(1)
	Zero = Const(0)
)

// IsConst reports whether e is a constant and returns its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Op == OpConst {
		return e.Val, true
	}
	return 0, false
}

// IsBool reports whether e is a comparison node (evaluates to 0/1).
func (e *Expr) IsBool() bool {
	switch e.Op {
	case OpEq, OpNe, OpLt, OpLe, OpSLt, OpSLe:
		return true
	}
	if e.Op == OpConst {
		return e.Val == 0 || e.Val == 1
	}
	return false
}

func isCommutative(op Op) bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}

// Apply computes a binary operation on concrete values, exactly as Eval
// does at each node. div/mod by zero yields (0, false); the executor turns
// that into a crash before ever building the expression.
func Apply(op Op, a, b uint64) (uint64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		if b >= 64 {
			return 0, true
		}
		return a << b, true
	case OpShr:
		if b >= 64 {
			return 0, true
		}
		return a >> b, true
	case OpEq:
		return b2w(a == b), true
	case OpNe:
		return b2w(a != b), true
	case OpLt:
		return b2w(a < b), true
	case OpLe:
		return b2w(a <= b), true
	case OpSLt:
		return b2w(int64(a) < int64(b)), true
	case OpSLe:
		return b2w(int64(a) <= int64(b)), true
	default:
		panic(fmt.Sprintf("expr: apply on %v", op))
	}
}

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Mask conservatively computes the set of bits e can have set. ok is
// false when no useful bound is known. The result is cached on the node.
func (e *Expr) Mask() (uint64, bool) {
	if mi := e.mask.Load(); mi != nil {
		return mi.mask, mi.ok
	}
	m, ok := computeMask(e)
	e.mask.Store(&maskInfo{mask: m, ok: ok})
	return m, ok
}

func computeMask(e *Expr) (uint64, bool) {
	switch e.Op {
	case OpConst:
		return e.Val, true
	case OpSym:
		return 0xFF, true
	case OpOr, OpXor:
		mx, okX := e.X.Mask()
		my, okY := e.Y.Mask()
		if okX && okY {
			return mx | my, true
		}
	case OpAnd:
		mx, okX := e.X.Mask()
		my, okY := e.Y.Mask()
		switch {
		case okX && okY:
			return mx & my, true
		case okX:
			return mx, true
		case okY:
			return my, true
		}
	case OpShl:
		if k, ok := e.Y.IsConst(); ok && k < 64 {
			if m, ok := e.X.Mask(); ok {
				return m << k, true
			}
		}
	case OpShr:
		if k, ok := e.Y.IsConst(); ok && k < 64 {
			if m, ok := e.X.Mask(); ok {
				return m >> k, true
			}
		}
	case OpAdd:
		// Sum of bounded values is bounded by the next power of two.
		mx, okX := e.X.Mask()
		my, okY := e.Y.Mask()
		if okX && okY && mx < 1<<62 && my < 1<<62 {
			sum := mx + my
			out := uint64(1)
			for out <= sum {
				out <<= 1
			}
			return out - 1, true
		}
	case OpEq, OpNe, OpLt, OpLe, OpSLt, OpSLe:
		return 1, true
	}
	return 0, false
}

// Bin builds x <op> y with simplification.
func Bin(op Op, x, y *Expr) *Expr {
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	if xc && yc {
		if v, ok := Apply(op, xv, yv); ok {
			return Const(v)
		}
	}
	// Canonicalize: constant on the right for commutative ops.
	if xc && !yc && isCommutative(op) {
		x, y = y, x
		xv, xc, yv, yc = yv, yc, xv, xc
	}
	if yc {
		switch op {
		case OpAdd, OpOr, OpXor, OpShl, OpShr:
			if yv == 0 {
				return x
			}
		case OpSub:
			if yv == 0 {
				return x
			}
		case OpMul:
			if yv == 0 {
				return Zero
			}
			if yv == 1 {
				return x
			}
		case OpAnd:
			if yv == 0 {
				return Zero
			}
			if yv == ^uint64(0) {
				return x
			}
		case OpDiv:
			if yv == 1 {
				return x
			}
		}
		// Re-associate constants: (x op c1) op c2 → x op (c1∘c2).
		if x.Op == op && (op == OpAdd || op == OpAnd || op == OpOr || op == OpXor || op == OpMul) {
			if c1, ok := x.Y.IsConst(); ok {
				if v, ok := Apply(op, c1, yv); ok {
					return Bin(op, x.X, Const(v))
				}
			}
		}
		// Mask-based rewrites. These collapse the byte-decomposition
		// round trips produced by symbolic stores and loads
		// (And(Shr(...)..., 0xFF) reassembled with Or/Shl), keeping
		// path constraints small.
		if e := maskRewrite(op, x, yv); e != nil {
			return e
		}
		// Comparison folding on byte symbols: a symbol is 0..255, so
		// several comparisons with large constants are decidable.
		if x.Op == OpSym {
			switch op {
			case OpEq:
				if yv > 255 {
					return Zero
				}
			case OpNe:
				if yv > 255 {
					return One
				}
			case OpLt:
				if yv > 255 {
					return One
				}
			case OpLe:
				if yv >= 255 {
					return One
				}
			}
		}
	}
	switch op {
	case OpXor, OpSub:
		if x.Equal(y) {
			return Zero
		}
	case OpEq, OpLe, OpSLe:
		if x.Equal(y) {
			return One
		}
	case OpNe, OpLt, OpSLt:
		if x.Equal(y) {
			return Zero
		}
	case OpAnd, OpOr:
		if x.Equal(y) {
			return x
		}
	}
	return &Expr{Op: op, X: x, Y: y}
}

// maskRewrite applies possible-bits reasoning to x <op> const. A nil
// result means no rewrite applies.
func maskRewrite(op Op, x *Expr, c uint64) *Expr {
	switch op {
	case OpAnd:
		if m, ok := x.Mask(); ok {
			if m&c == m {
				return x // the mask keeps every possible bit
			}
			if m&c == 0 {
				return Zero
			}
		}
		// Distribute over Or when a side collapses:
		// And(Or(a,b), c) → Or(And(a,c), And(b,c)).
		if x.Op == OpOr {
			ma, okA := x.X.Mask()
			mb, okB := x.Y.Mask()
			if okA && okB && (ma&c == 0 || mb&c == 0 || ma&c == ma || mb&c == mb) {
				return Bin(OpOr, Bin(OpAnd, x.X, Const(c)), Bin(OpAnd, x.Y, Const(c)))
			}
		}
	case OpShr:
		if c >= 64 {
			return Zero
		}
		if m, ok := x.Mask(); ok && m>>c == 0 {
			return Zero
		}
		// Shr(Shl(v,c),c) → v when the left shift lost no bits.
		if x.Op == OpShl {
			if k, ok := x.Y.IsConst(); ok && k == c {
				if m, ok := x.X.Mask(); ok && m<<c>>c == m {
					return x.X
				}
			}
		}
		// Distribute over Or when a side collapses.
		if x.Op == OpOr {
			ma, okA := x.X.Mask()
			mb, okB := x.Y.Mask()
			if okA && okB && (ma>>c == 0 || mb>>c == 0) {
				return Bin(OpOr, Bin(OpShr, x.X, Const(c)), Bin(OpShr, x.Y, Const(c)))
			}
		}
	case OpShl:
		if c >= 64 {
			return Zero
		}
		// Shl(Shr(v,c),c) → v when v has no low bits to lose.
		if x.Op == OpShr {
			if k, ok := x.Y.IsConst(); ok && k == c {
				if m, ok := x.X.Mask(); ok && m&((1<<c)-1) == 0 {
					return x.X
				}
			}
		}
	}
	return nil
}

// Not returns a boolean expression that is 1 iff e is 0. The result is
// cached on e, so complementing a long-lived path constraint again, as
// every solve's complement scan and every else-branch of the executor do,
// costs O(1) and returns the same node.
func Not(e *Expr) *Expr {
	if n := e.not.Load(); n != nil {
		return n
	}
	n := complement(e)
	e.not.Store(n)
	return n
}

// complement builds Not(e) without consulting the cache.
func complement(e *Expr) *Expr {
	if v, ok := e.IsConst(); ok {
		return Const(b2w(v == 0))
	}
	switch e.Op {
	case OpEq:
		return Bin(OpNe, e.X, e.Y)
	case OpNe:
		return Bin(OpEq, e.X, e.Y)
	case OpLt: // ¬(x<y) = y<=x
		return Bin(OpLe, e.Y, e.X)
	case OpLe:
		return Bin(OpLt, e.Y, e.X)
	case OpSLt:
		return Bin(OpSLe, e.Y, e.X)
	case OpSLe:
		return Bin(OpSLt, e.Y, e.X)
	default:
		return Bin(OpEq, e, Zero)
	}
}

// Bool returns a boolean (0/1) expression that is 1 iff e is non-zero.
func Bool(e *Expr) *Expr {
	if v, ok := e.IsConst(); ok {
		return Const(b2w(v != 0))
	}
	if e.IsBool() {
		return e
	}
	return Bin(OpNe, e, Zero)
}

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil || e.Op != o.Op {
		return false
	}
	switch e.Op {
	case OpConst:
		return e.Val == o.Val
	case OpSym:
		return e.Sym == o.Sym
	default:
		return e.X.Equal(o.X) && e.Y.Equal(o.Y)
	}
}

// Eval evaluates e under a partial assignment: lookup returns the value of
// a symbol and whether it is assigned. The second result is false when an
// unassigned symbol (or a division by zero) blocks evaluation.
func (e *Expr) Eval(lookup func(sym int) (uint64, bool)) (uint64, bool) {
	switch e.Op {
	case OpConst:
		return e.Val, true
	case OpSym:
		return lookup(e.Sym)
	default:
		x, ok := e.X.Eval(lookup)
		if !ok {
			return 0, false
		}
		y, ok := e.Y.Eval(lookup)
		if !ok {
			return 0, false
		}
		return Apply(e.Op, x, y)
	}
}

// Residual evaluates e for every value of the symbol inner at once, with
// every other symbol read through lookup as Eval reads it. When the result
// does not depend on inner, konst is true and (v, ok) is exactly what Eval
// returns for each of inner's values. Otherwise konst is false.
//
// Eval fails at a node when either operand fails, so a failing operand
// that does not depend on inner fails the node for every value. A node
// absorbs inner when one operand is a defined 0 and the node is And or
// Mul, but only if the other operand can never fail: Eval would fail
// there for the values that make it fail, not return 0.
func (e *Expr) Residual(lookup func(sym int) (uint64, bool), inner int) (v uint64, ok, konst bool) {
	v, ok, konst, _ = e.residual(lookup, inner)
	return v, ok, konst
}

// residual is Residual that also reports, for a result that depends on
// inner, whether some value of inner may make its evaluation fail.
func (e *Expr) residual(lookup func(sym int) (uint64, bool), inner int) (v uint64, ok, konst, mayFail bool) {
	switch e.Op {
	case OpConst:
		return e.Val, true, true, false
	case OpSym:
		if e.Sym == inner {
			return 0, false, false, false
		}
		v, ok := lookup(e.Sym)
		return v, ok, true, false
	}
	xv, xok, xk, xf := e.X.residual(lookup, inner)
	if xk && !xok {
		return 0, false, true, false
	}
	yv, yok, yk, yf := e.Y.residual(lookup, inner)
	if yk && !yok {
		return 0, false, true, false
	}
	if xk && yk {
		v, ok := Apply(e.Op, xv, yv)
		return v, ok, true, false
	}
	switch e.Op {
	case OpAnd, OpMul:
		if (xk && xv == 0 && !yf) || (yk && yv == 0 && !xf) {
			return 0, true, true, false
		}
	case OpDiv, OpMod:
		if yk && yv == 0 {
			return 0, false, true, false
		}
		if !yk {
			yf = true
		}
	}
	return 0, false, false, xf || yf
}

// MayAbsorb reports whether e holds an And or Mul node with two
// non-constant operands: the only nodes at which Residual can find a
// defined value that does not depend on a symbol of e. In a tree built by
// Bin a constant operand of either is never 0, because Bin folds that
// node away; for other trees MayAbsorb may miss a fold, never invent one.
func (e *Expr) MayAbsorb() bool {
	switch e.Op {
	case OpConst, OpSym:
		return false
	case OpAnd, OpMul:
		if e.X.Op != OpConst && e.Y.Op != OpConst {
			return true
		}
	}
	return e.X.MayAbsorb() || e.Y.MayAbsorb()
}

// EvalConcrete evaluates e under a total assignment given as a byte slice
// indexed by symbol; out-of-range symbols read as 0.
func (e *Expr) EvalConcrete(input []byte) uint64 {
	v, ok := e.Eval(func(sym int) (uint64, bool) {
		if sym >= 0 && sym < len(input) {
			return uint64(input[sym]), true
		}
		return 0, true
	})
	if !ok {
		// Division by zero under a total assignment; define as 0, the
		// solver never accepts such models for real constraints.
		return 0
	}
	return v
}

// Syms returns the sorted distinct symbols appearing in e. The result is
// cached; callers must not modify it.
func (e *Expr) Syms() []int {
	if p := e.syms.Load(); p != nil {
		return *p
	}
	var buf [16]int
	all := e.collect(buf[:0])
	slices.Sort(all)
	all = slices.Compact(all)
	out := make([]int, len(all))
	copy(out, all)
	e.syms.Store(&out)
	return out
}

// fingerprint mixing constants (splitmix64 finalizer multipliers) and
// per-field seeds; the exact values only need to be fixed and well mixed.
const (
	fpMul1 = 0xbf58476d1ce4e5b9
	fpMul2 = 0x94d049bb133111eb
)

// fpMix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// permutation used to combine fingerprint components.
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= fpMul1
	x ^= x >> 27
	x *= fpMul2
	x ^= x >> 31
	return x
}

// Fingerprint returns a 64-bit structural hash of e: equal structures have
// equal fingerprints, and distinct structures collide with the odds of a
// well-mixed 64-bit hash (no adversarial inputs exist here — every
// expression is built by the executor from program text). The result is
// cached on the node, so fingerprinting a constraint set costs one tree
// walk the first time and O(1) afterwards. Used by the solver's memoized
// satisfiability cache to canonicalize constraint sets.
func (e *Expr) Fingerprint() uint64 {
	if fp := e.fp.Load(); fp != 0 {
		return fp
	}
	var h uint64
	switch e.Op {
	case OpConst:
		h = fpMix(uint64(e.Op) ^ fpMix(e.Val))
	case OpSym:
		h = fpMix(uint64(e.Op)<<32 ^ fpMix(uint64(e.Sym)+1))
	default:
		// Mix the operator with both child fingerprints, order-sensitively
		// (x-y and y-x must differ).
		h = fpMix(uint64(e.Op) + fpMix(e.X.Fingerprint()) + 3*fpMix(e.Y.Fingerprint()))
	}
	if h == 0 {
		h = 1 // 0 is the "unset" sentinel
	}
	e.fp.Store(h)
	return h
}

// collect appends every symbol leaf of e to out, repeats included.
func (e *Expr) collect(out []int) []int {
	switch e.Op {
	case OpConst:
		return out
	case OpSym:
		return append(out, e.Sym)
	}
	return e.Y.collect(e.X.collect(out))
}

// Size returns the node count, a proxy for expression complexity.
func (e *Expr) Size() int {
	switch e.Op {
	case OpConst, OpSym:
		return 1
	default:
		return 1 + e.X.Size() + e.Y.Size()
	}
}

// String renders the expression in infix form.
func (e *Expr) String() string {
	var sb strings.Builder
	e.render(&sb)
	return sb.String()
}

func (e *Expr) render(sb *strings.Builder) {
	switch e.Op {
	case OpConst:
		fmt.Fprintf(sb, "%#x", e.Val)
	case OpSym:
		fmt.Fprintf(sb, "in[%d]", e.Sym)
	default:
		sb.WriteByte('(')
		e.X.render(sb)
		fmt.Fprintf(sb, " %s ", e.Op)
		e.Y.render(sb)
		sb.WriteByte(')')
	}
}
