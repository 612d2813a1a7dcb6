package symex

import (
	"slices"
	"testing"

	"octopocs/internal/expr"
	"octopocs/internal/solver"
)

// sliceFuzzBudget caps every solve of FuzzSliceVsFull: one filtering pass
// over two full byte domains fits many times over.
const sliceFuzzBudget = 1 << 20

var (
	sliceOps  = []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpAnd, expr.OpOr, expr.OpXor}
	sliceCmps = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe}
)

// sliceSystem decodes fuzz bytes into a path condition of up to six
// constraints, an extra constraint and a known-prefix length, over six byte
// symbols. The first byte sets how many trailing constraints are
// unverified. Each constraint is [a, b, op, cmp, k]: in[a%6], combined by
// op with in[b%6] unless b >= 0x80, compared by cmp against k. The last
// constraint decoded is the extra one. Missing bytes read as zero.
func sliceSystem(data []byte) (pc []*expr.Expr, extra *expr.Expr, known int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	tail := int(next())
	var cs []*expr.Expr
	for len(cs) < 7 && (len(cs) == 0 || len(data) > 0) {
		a, b, op, cmp, k := next(), next(), next(), next(), next()
		term := expr.Sym(int(a % 6))
		if b < 0x80 {
			term = expr.Bin(sliceOps[int(op)%len(sliceOps)], term, expr.Sym(int(b%6)))
		}
		cs = append(cs, expr.Bin(sliceCmps[int(cmp)%len(sliceCmps)], term, expr.Const(uint64(k))))
	}
	pc, extra = cs[:len(cs)-1], cs[len(cs)-1]
	return pc, extra, len(pc) - tail%(len(pc)+1)
}

// FuzzSliceVsFull checks the independent slice against the whole path.
// It keeps the path conditions whose known prefix the solver finds
// satisfiable, which is the invariant feasible relies on, and requires:
// the slice ends with the extra constraint, keeps every unverified
// constraint, keeps path order, and leaves out only constraints that share
// no symbol with what it keeps; and wherever solving the whole path with
// the extra constraint decides, feasible returns the same verdict.
func FuzzSliceVsFull(f *testing.F) {
	// in0 == in1 + 0 chained to in1 < 3, extra in0 == 9: a transitive
	// link decides the check (unsat).
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0x80, 0, 2, 3, 0, 0x80, 0, 0, 9})
	// Unrelated known constraint on in4, extra on in0: left out (sat).
	f.Add([]byte{0, 4, 0x80, 0, 0, 7, 0, 0x80, 0, 0, 9})
	// Contradictory unverified tail on in5 (in5 == 1, in5 == 2), extra on
	// in0: the tail stays in, so the check is unsat.
	f.Add([]byte{2, 5, 0x80, 0, 0, 1, 5, 0x80, 0, 0, 2, 0, 0x80, 0, 0, 7})
	// in2 * in3 == 12 known, in3 ^ in4 != 0 unverified, extra in4 < 1.
	f.Add([]byte{1, 2, 3, 2, 0, 12, 3, 4, 5, 1, 0, 4, 0x80, 0, 2, 1})

	e := New(nil, Config{SatBudget: sliceFuzzBudget})
	f.Fuzz(func(t *testing.T, data []byte) {
		pc, extra, known := sliceSystem(data)
		s := solver.Solver{Budget: sliceFuzzBudget}
		if ok, err := s.Sat(pc[:known]); err != nil || !ok {
			return
		}

		got := slices.Clone(e.slicer.slice(pc, known, extra))
		prefix := len(got) - 1 - (len(pc) - known)
		if prefix < 0 || !slices.Equal(got[prefix:], append(slices.Clone(pc[known:]), extra)) {
			t.Fatalf("slice %v does not end with the unverified tail %v and extra %v", got, pc[known:], extra)
		}
		syms := map[int]bool{}
		for _, c := range got {
			for _, s := range c.Syms() {
				syms[s] = true
			}
		}
		j := 0
		for i, c := range pc[:known] {
			if j < prefix && got[j] == c {
				j++
				continue
			}
			for _, s := range c.Syms() {
				if syms[s] {
					t.Fatalf("constraint %d (%v) reads in%d of slice %v but was left out", i, c, s, got)
				}
			}
		}
		if j != prefix {
			t.Fatalf("slice %v is not in path order of %v", got, pc)
		}

		if _, isConst := extra.IsConst(); isConst {
			return // feasible answers a constant without the path
		}
		st := newState()
		st.constraints, st.known = pc, known
		ok, err := e.feasible(st, extra)
		want, wantErr := s.Sat(append(slices.Clip(pc), extra))
		if wantErr != nil {
			return
		}
		if err != nil || ok != want {
			t.Fatalf("path %v (known %d) + %v: slice says %v, %v; whole path %v", pc, known, extra, ok, err, want)
		}
	})
}
