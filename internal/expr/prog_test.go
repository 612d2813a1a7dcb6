package expr

import (
	"fmt"
	"sync"
	"testing"
)

// progTree decodes one node from next, like residualTree over symbols 0-3,
// with shared subtrees: a node byte b with b%8 == 1, once some node is
// built, is followed by an index byte and reuses that earlier node, so the
// tree becomes a DAG. Every node built is appended to built in post-order.
func progTree(next func() byte, depth int, built *[]*Expr) *Expr {
	b := next()
	if b%8 == 1 && len(*built) > 0 {
		return (*built)[int(next())%len(*built)]
	}
	var e *Expr
	if depth == 0 || b%4 == 0 {
		if l := next(); l&1 != 0 {
			e = Sym(int(l>>1) % 4)
		} else {
			e = Const(residualConst(next(), l>>1))
		}
	} else {
		op := residualOps[int(b>>3)%len(residualOps)]
		x := progTree(next, depth-1, built)
		y := progTree(next, depth-1, built)
		if b&4 != 0 {
			e = &Expr{Op: op, X: x, Y: y}
		} else {
			e = Bin(op, x, y)
		}
	}
	*built = append(*built, e)
	return e
}

// progNodes counts the registers a compiled e needs: its distinct nodes,
// every leaf of one symbol counted once.
func progNodes(e *Expr, seen map[*Expr]bool, syms map[int]bool) int {
	if seen[e] {
		return 0
	}
	seen[e] = true
	switch e.Op {
	case OpConst:
		return 1
	case OpSym:
		if syms[e.Sym] {
			return 0
		}
		syms[e.Sym] = true
		return 1
	}
	return 1 + progNodes(e.X, seen, syms) + progNodes(e.Y, seen, syms)
}

// FuzzProgVsEval checks register programs, whole and tiered, against
// Eval. The input is [outer, inner, mask, v0, v1, v2, v3, o0, o1,
// tree...]: symbol i is assigned v_i when bit i of mask is set, and
// unassigned otherwise. A whole run of the program must return Eval's
// (value, ok) under that assignment. A scan of inner alone, every other
// symbol read from the assignment, must return Eval's result at each of
// inner's 256 values; a scan of outer and inner must do so at outer values
// o0, o1 and o0 again, each with all 256 inner values. One Machine serves
// every run, and the program must have one register per distinct node.
func FuzzProgVsEval(f *testing.F) {
	// (100 / in[2]) + (in[0] + in[1]) with in[2] = 0: the fixed tier
	// divides by zero.
	f.Add([]byte{0, 1, 0x0c, 0, 0, 0, 5, 7, 9, 6, 30, 0, 0, 100, 0, 5, 6, 0, 1, 0, 3})
	// (100 / in[0]) + in[1] at in[0] = 0, then 3: the outer tier divides
	// by zero, then does not.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 3, 6, 30, 0, 0, 100, 0, 1, 0, 3})
	// in[0] % in[1]: the inner tier divides by zero at in[1] = 0.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 5, 0, 38, 0, 1, 0, 3})
	// ((in[0] * in[1]) + the same product) ^ in[3] with in[3] = 7: a
	// shared subtree across the outer and inner tiers.
	f.Add([]byte{0, 1, 0x08, 0, 0, 0, 7, 2, 200, 62, 6, 22, 0, 1, 0, 3, 1, 2, 0, 7})
	// The same with in[3] unassigned: the fixed tier fails everywhere.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 7, 2, 200, 62, 6, 22, 0, 1, 0, 3, 1, 2, 0, 7})
	// (in[0] + in[1]) - in[0]: two leaves of the outer symbol.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 4, 9, 14, 6, 0, 1, 0, 3, 0, 1})

	var m Machine
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		outer := int(next()) % 4
		inner := int(next()) % 4
		if inner == outer {
			inner = (outer + 1) % 4
		}
		mask := next()
		var assigned [4]bool
		var values [4]byte
		for i := range values {
			assigned[i], values[i] = mask&(1<<i) != 0, next()
		}
		outers := []uint64{uint64(next()), uint64(next())}
		outers = append(outers, outers[0])
		var built []*Expr
		e := progTree(next, 5, &built)
		p := e.Prog()
		if want := progNodes(e, map[*Expr]bool{}, map[int]bool{}); len(p.code) != want {
			t.Fatalf("%v: program has %d registers, want %d", e, len(p.code), want)
		}

		// eval is Eval with symbols s0 and s1 (each -1 for none) at v0 and
		// v1 and every other one read from the assignment.
		eval := func(s0 int, v0 uint64, s1 int, v1 uint64) (uint64, bool) {
			return e.Eval(func(sym int) (uint64, bool) {
				switch {
				case sym == s0:
					return v0, true
				case sym == s1:
					return v1, true
				case sym < 0 || sym >= len(assigned) || !assigned[sym]:
					return 0, false
				}
				return uint64(values[sym]), true
			})
		}
		gv, gok := m.Eval(p, assigned[:], values[:])
		if wv, wok := eval(-1, 0, -1, 0); gv != wv || gok != wok {
			t.Fatalf("%v: program = (%#x, %v); Eval = (%#x, %v)", e, gv, gok, wv, wok)
		}
		m.Scan(p, -1, inner, assigned[:], values[:])
		for x := uint64(0); x < 256; x++ {
			gv, gok := m.Inner(x)
			if wv, wok := eval(inner, x, -1, 0); gv != wv || gok != wok {
				t.Fatalf("%v with in[%d] = %d scanned: program = (%#x, %v); Eval = (%#x, %v)", e, inner, x, gv, gok, wv, wok)
			}
		}
		m.Scan(p, outer, inner, assigned[:], values[:])
		for _, o := range outers {
			m.Outer(o)
			for x := uint64(0); x < 256; x++ {
				gv, gok := m.Inner(x)
				if wv, wok := eval(outer, o, inner, x); gv != wv || gok != wok {
					t.Fatalf("%v with in[%d] = %d, in[%d] = %d scanned: program = (%#x, %v); Eval = (%#x, %v)",
						e, outer, o, inner, x, gv, gok, wv, wok)
				}
			}
		}
	})
}

// TestNodeCachesConcurrent compiles, decomposes and reads the support of
// shared nodes from several goroutines at once, each evaluating through
// its own Machine: every goroutine must get the decomposition and support
// of a fresh copy of the same trees, and Eval's answers. Run it under
// -race.
func TestNodeCachesConcurrent(t *testing.T) {
	build := func() []*Expr {
		word := Bin(OpOr, Sym(0), Bin(OpShl, Sym(1), Const(8)))
		mix := Bin(OpAnd, Bin(OpAdd, Bin(OpMul, Sym(2), Const(17)), Bin(OpMul, Sym(3), Const(31))), Const(63))
		return []*Expr{Bin(OpEq, word, Const(0x1234)), Bin(OpEq, mix, Const(5)), Bin(OpDiv, Const(100), Sym(1))}
	}
	var want []string
	for _, e := range build() {
		want = append(want, fmt.Sprint(AppendDecomposed(nil, e), e.Syms()))
	}
	shared := build()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m Machine
			assigned := []bool{true, true, true, true}
			values := make([]byte, 4)
			for round := 0; round < 64; round++ {
				for i, e := range shared {
					if got := fmt.Sprint(AppendDecomposed(nil, e), e.Syms()); got != want[i] {
						t.Errorf("%v: decomposition and support %s, want %s", e, got, want[i])
						return
					}
					for j := range values {
						values[j] = byte(round*(g+1) + 37*j)
					}
					gv, gok := m.Eval(e.Prog(), assigned, values)
					wv, wok := e.Eval(func(sym int) (uint64, bool) { return uint64(values[sym]), true })
					if gv != wv || gok != wok {
						t.Errorf("%v at %v: program = (%#x, %v); Eval = (%#x, %v)", e, values, gv, gok, wv, wok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
