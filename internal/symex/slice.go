package symex

import (
	"slices"

	"octopocs/internal/expr"
)

// slicer builds the independent slice a feasibility check submits to the
// solver (the constraint-independence optimization of KLEE, Cadar et al.,
// OSDI 2008). Its buffers are reused from check to check; each Executor
// owns one, so frontier workers share nothing.
type slicer struct {
	// seen[sym] == gen marks sym as read by the slice under construction.
	seen []uint32
	gen  uint32
	// picked[i] marks known-prefix constraint i as part of the slice.
	picked []bool
	out    []*expr.Expr
}

// slice returns the constraints of cs that can decide whether extra is
// feasible, in path order, followed by extra. The first known constraints
// of cs are jointly satisfiable; the rest (constraints added through
// State.AddConstraint that no check has covered) are always kept. A
// known-prefix constraint is kept when it shares a symbol, transitively,
// with extra or the kept tail. What is left out is a satisfiable set over
// symbols the slice never reads, so the slice with extra is satisfiable
// exactly when the whole path condition with extra is.
//
// The returned slice is valid until the next call.
func (sl *slicer) slice(cs []*expr.Expr, known int, extra *expr.Expr) []*expr.Expr {
	sl.gen++
	if sl.gen == 0 {
		clear(sl.seen)
		sl.gen = 1
	}
	sl.mark(extra)
	for _, c := range cs[known:] {
		sl.mark(c)
	}
	picked := slices.Grow(sl.picked[:0], known)[:known]
	clear(picked)
	sl.picked = picked
	for grown := true; grown; {
		grown = false
		for i, c := range cs[:known] {
			if !picked[i] && sl.reads(c) {
				picked[i] = true
				sl.mark(c)
				grown = true
			}
		}
	}
	out := sl.out[:0]
	for i, c := range cs[:known] {
		if picked[i] {
			out = append(out, c)
		}
	}
	out = append(append(out, cs[known:]...), extra)
	sl.out = out
	return out
}

// mark adds c's symbols to the slice's symbol set.
func (sl *slicer) mark(c *expr.Expr) {
	for _, s := range c.Syms() {
		if s >= len(sl.seen) {
			sl.seen = append(sl.seen, make([]uint32, s+1-len(sl.seen))...)
		}
		sl.seen[s] = sl.gen
	}
}

// reads reports whether c reads a symbol of the slice's symbol set.
func (sl *slicer) reads(c *expr.Expr) bool {
	for _, s := range c.Syms() {
		if s < len(sl.seen) && sl.seen[s] == sl.gen {
			return true
		}
	}
	return false
}
