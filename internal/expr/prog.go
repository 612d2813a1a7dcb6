package expr

import (
	"slices"
	"sync"
)

// A Prog is an expression compiled to a flat register program: one
// instruction per distinct node, children before parents, so instruction i
// writes register i and the root's value ends in the last register. Shared
// subtrees are compiled once, and every leaf of one symbol shares one
// register, so a scan can write a symbol's value straight into it.
//
// Evaluation through a Prog is exactly Eval. Eval fails when some node
// fails, an unassigned symbol or a Div or Mod by 0, because a failing
// operand fails its parent. A register program runs every instruction and
// ORs each one's failure into a flag instead: when no instruction fails,
// every register holds the value Eval computes; when one fails, Eval fails
// too, whatever garbage the registers above it then hold. Shared subtrees
// change nothing, since Eval of one node always gives one result.
type Prog struct {
	code []ins
}

// ins is one instruction: register dst gets op over registers x and y,
// the constant val (OpConst) or the value of symbol val (OpSym).
type ins struct {
	op        Op
	x, y, dst int32
	val       uint64
}

// Prog returns e compiled to a register program. The program is compiled
// once per node and cached on it, so every solve that evaluates a
// long-lived path constraint shares one program.
func (e *Expr) Prog() *Prog {
	if p := e.prog.Load(); p != nil {
		return p
	}
	c := compilers.Get().(*compiler)
	c.emit(e)
	p := &Prog{code: slices.Clone(c.code)}
	if len(c.code) <= maxPooledCompile {
		clear(c.reg)
		c.code, c.syms = c.code[:0], c.syms[:0]
		compilers.Put(c)
	}
	e.prog.Store(p)
	return p
}

// compiler emits a Prog in post-order; reg maps each compiled node, and
// each symbol's first leaf, to its register.
type compiler struct {
	code []ins
	reg  map[*Expr]int32
	syms []ins // one OpSym instruction per symbol seen, dst set
}

// compilers keeps compilers between compilations, so compiling a fresh
// constraint allocates only its program. One that compiled more than
// maxPooledCompile nodes is dropped instead, so no rare giant tree leaves
// a large map that every later compilation would clear.
var compilers = sync.Pool{New: func() any { return &compiler{reg: map[*Expr]int32{}} }}

const maxPooledCompile = 1024

func (c *compiler) emit(e *Expr) int32 {
	if r, ok := c.reg[e]; ok {
		return r
	}
	in := ins{op: e.Op}
	switch e.Op {
	case OpConst:
		in.val = e.Val
	case OpSym:
		in.val = uint64(e.Sym)
		for _, s := range c.syms {
			if s.val == in.val {
				c.reg[e] = s.dst
				return s.dst
			}
		}
	default:
		in.x = c.emit(e.X)
		in.y = c.emit(e.Y)
	}
	in.dst = int32(len(c.code))
	c.code = append(c.code, in)
	if e.Op == OpSym {
		c.syms = append(c.syms, in)
	}
	c.reg[e] = in.dst
	return in.dst
}

// run executes code over the register file r, reading symbol leaves from
// a partial assignment indexed by symbol (assigned[s] set means values[s]
// holds symbol s; a symbol past the end of assigned is unassigned), and
// reports whether some instruction failed.
func run(code []ins, r []uint64, assigned []bool, values []byte) (fail bool) {
	for i := range code {
		in := &code[i]
		var v uint64
		switch in.op {
		case OpConst:
			v = in.val
		case OpSym:
			if in.val < uint64(len(assigned)) && assigned[in.val] {
				v = uint64(values[in.val])
			} else {
				fail = true
			}
		case OpAdd:
			v = r[in.x] + r[in.y]
		case OpSub:
			v = r[in.x] - r[in.y]
		case OpMul:
			v = r[in.x] * r[in.y]
		case OpDiv:
			if d := r[in.y]; d != 0 {
				v = r[in.x] / d
			} else {
				fail = true
			}
		case OpMod:
			if d := r[in.y]; d != 0 {
				v = r[in.x] % d
			} else {
				fail = true
			}
		case OpAnd:
			v = r[in.x] & r[in.y]
		case OpOr:
			v = r[in.x] | r[in.y]
		case OpXor:
			v = r[in.x] ^ r[in.y]
		case OpShl:
			v = r[in.x] << r[in.y] // 0 from 64 on, as Apply
		case OpShr:
			v = r[in.x] >> r[in.y]
		case OpEq:
			v = b2w(r[in.x] == r[in.y])
		case OpNe:
			v = b2w(r[in.x] != r[in.y])
		case OpLt:
			v = b2w(r[in.x] < r[in.y])
		case OpLe:
			v = b2w(r[in.x] <= r[in.y])
		case OpSLt:
			v = b2w(int64(r[in.x]) < int64(r[in.y]))
		case OpSLe:
			v = b2w(int64(r[in.x]) <= int64(r[in.y]))
		default:
			v, _ = Apply(in.op, r[in.x], r[in.y]) // panics, as Eval does
		}
		r[in.dst] = v
	}
	return fail
}

// A Machine evaluates programs over a register file it reuses, so a warm
// Machine allocates nothing. It is not safe for concurrent use.
//
// Besides whole evaluations, a Machine scans: Scan splits a program into
// three tiers for enumerating an outer and an inner symbol. Instructions
// that depend on neither run once in Scan, those that depend on the outer
// symbol only run once per outer value in Outer, and only those that
// depend on the inner symbol run per inner value in Inner. Each tier ORs
// its failures into its own flag, and Inner fails when any of the three
// did, so every Inner result is exactly Eval's at that pair of values.
type Machine struct {
	regs []uint64
	dep  []uint8  // per register: bit 0 outer symbol, bit 1 inner symbol
	tier [3][]ins // fixed, outer and inner instructions, in program order
	// leaf holds the registers of the outer and inner symbol; a symbol the
	// program does not mention gets the spare register past its end.
	leaf      [2]int32
	res       int32 // the result register
	fixedFail bool  // the fixed tier failed
	failed    bool  // the fixed or the outer tier failed
}

// grow returns s with length n, reusing its storage when large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Eval evaluates p under a partial assignment given as symbol-indexed
// arrays (see run). It returns what Eval returns for the same assignment.
func (m *Machine) Eval(p *Prog, assigned []bool, values []byte) (uint64, bool) {
	m.regs = grow(m.regs, len(p.code))
	if run(p.code, m.regs, assigned, values) {
		return 0, false
	}
	return m.regs[len(p.code)-1], true
}

// Scan prepares p for enumerating symbols outer and inner, every other
// symbol read from the assignment now, and runs the fixed tier. A negative
// outer scans inner alone; a symbol p does not mention is ignored. Outer
// must then be called before Inner whenever outer is scanned.
func (m *Machine) Scan(p *Prog, outer, inner int, assigned []bool, values []byte) {
	n := len(p.code)
	m.regs = grow(m.regs, n+1)
	m.dep = grow(m.dep, n)
	for t := range m.tier {
		m.tier[t] = m.tier[t][:0]
	}
	m.leaf = [2]int32{int32(n), int32(n)}
	for i, in := range p.code {
		var d uint8
		switch in.op {
		case OpConst:
		case OpSym:
			switch {
			case inner >= 0 && in.val == uint64(inner):
				m.dep[i], m.leaf[1] = 2, in.dst
				continue
			case outer >= 0 && in.val == uint64(outer):
				m.dep[i], m.leaf[0] = 1, in.dst
				continue
			}
		default:
			d = m.dep[in.x] | m.dep[in.y]
		}
		m.dep[i] = d
		t := min(int(d), 2) // the inner tier takes both symbols' dependents
		m.tier[t] = append(m.tier[t], in)
	}
	m.res = int32(n - 1)
	m.fixedFail = run(m.tier[0], m.regs, assigned, values)
	m.failed = m.fixedFail
}

// Outer sets the outer symbol to v and runs the outer tier.
func (m *Machine) Outer(v uint64) {
	m.regs[m.leaf[0]] = v
	m.failed = m.fixedFail || run(m.tier[1], m.regs, nil, nil)
}

// Inner sets the inner symbol to v, runs the inner tier and returns what
// Eval returns with the outer and inner symbols at their values.
func (m *Machine) Inner(v uint64) (uint64, bool) {
	m.regs[m.leaf[1]] = v
	if m.failed || run(m.tier[2], m.regs, nil, nil) {
		return 0, false
	}
	return m.regs[m.res], true
}
