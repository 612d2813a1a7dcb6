//go:build race

package solver

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// what it is given, so allocation counts stop measuring the solver.
const raceEnabled = true
