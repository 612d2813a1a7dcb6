package symex

import "octopocs/internal/expr"

// SetSliceHook installs f as the observer of every solver-backed
// feasibility check and returns a function that removes it. Install it
// only while no exploration runs.
func SetSliceHook(f func(pc []*expr.Expr, extra *expr.Expr, ok bool, err error)) (restore func()) {
	old := sliceHook
	sliceHook = f
	return func() { sliceHook = old }
}
