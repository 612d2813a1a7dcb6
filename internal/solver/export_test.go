package solver

import "sync"

// CountEvaluations runs f and returns the constraint evaluations every
// solve it started charged to the budget and the ones it actually ran.
// With fold false, those solves skip the residual fold. A solve that ran
// out of budget counts as charging all of it, however far past the end
// its last charge reached.
func CountEvaluations(fold bool, f func()) (charged, evaluated int64) {
	var mu sync.Mutex
	start := map[*state]int64{}
	testHook = func(st *state, done bool) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			st.noFold = st.noFold || !fold
			start[st] = st.budget
			return
		}
		charged += start[st] - max(st.budget, 0)
		evaluated += st.evaluated
		delete(start, st)
	}
	defer func() { testHook = nil }()
	f()
	return charged, evaluated
}
