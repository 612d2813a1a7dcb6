package solver

import "slices"

// Filtering a constraint is a pure function of three things: the
// constraint, the values of its assigned support symbols and the domains
// of its unassigned ones. Feasibility checks along one path, and across
// sibling paths and jobs, filter the same constraint under the same
// support state over and over, so the Cache keeps each completed outcome —
// the narrowed domains plus the number of evaluations enumeration charged
// for them — and a solve that meets the same input again replays it
// through charge. charge fails exactly when enumerating would have run out
// part-way, and ErrBudget aborts the whole solve from any point, so a
// replay leaves the verdict, the model and the budget outcome of every
// solve as they were, at every budget. An enumeration that ran out of
// budget is never stored.

// outcome is the effect of filtering one constraint: the resulting domains
// of its unassigned symbols, in support order, and the evaluations spent.
type outcome struct {
	doms  [2]domain
	evals int64
}

// filterOutcome is one memo entry: the signature of the input it was
// computed from, compared word for word on every hit, and its outcome. The
// signature names the constraint by its structural fingerprint, not by
// pointer, so an entry holds no expression tree alive in a Cache shared
// across jobs. That trusts the fingerprint exactly as far as the verdict
// cache's CacheKey, which is built from the same fingerprints, already
// does.
type filterOutcome struct {
	sig []uint64
	outcome
}

// memoKey writes the support state of constraint ci into st.sig and
// returns its hash. The signature starts with the constraint's
// fingerprint; each support symbol then adds 256+value when assigned, or a
// 0 tag and its four domain words when not.
func (st *state) memoKey(ci int) uint64 {
	c := st.constraints[ci]
	sig := append(st.sig[:0], c.Fingerprint())
	for _, si := range st.support(ci) {
		if st.assigned[si] {
			sig = append(sig, 256+uint64(st.values[si]))
			continue
		}
		d := &st.domains[si]
		sig = append(sig, 0, d[0], d[1], d[2], d[3])
	}
	st.sig = sig
	h := uint64(len(sig))
	for _, w := range sig {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// recall returns the stored outcome of filtering under signature sig,
// whose hash is h.
func (c *Cache) recall(h uint64, sig []uint64) (outcome, bool) {
	e, ok := c.filter.get(h, h)
	if !ok || !slices.Equal(e.sig, sig) {
		return outcome{}, false
	}
	return e.outcome, true
}

// remember stores a completed outcome; sig is copied.
func (c *Cache) remember(h uint64, sig []uint64, o outcome) {
	c.filter.put(h, h, &filterOutcome{sig: slices.Clone(sig), outcome: o})
}
