package fuzz

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"octopocs/internal/cfg"
)

// ErrNoDistance reports that the AFLGo-style instrumentation could not
// compute distances to the target: the static CFG contains no path from
// the entry to the target function. This is the "tool error" of Table V's
// MuPDF row — AFLGo's compile-time distance instrumentation cannot see
// through indirect dispatch.
var ErrNoDistance = errors.New("fuzz: target unreachable in the static CFG, cannot instrument distances")

// RunAFLGo runs a directed campaign toward the target function with
// AFLGo-style annealing: seed energy is scaled by the seed's normalized
// distance to the target, with the exploitation weight growing as the
// campaign progresses (Böhme et al., "Directed Greybox Fuzzing").
//
// Distances come from the static CFG only, mirroring AFLGo's compile-time
// instrumentation pass.
func RunAFLGo(t *Target, targetFn string, c Config) (*Result, error) {
	graph := cfg.Build(t.Prog)
	if !graph.Reachable(targetFn) {
		return nil, fmt.Errorf("%w (target %s)", ErrNoDistance, targetFn)
	}
	return RunDirected(t, targetFn, graph.DistancesTo(targetFn), c), nil
}

// RunDirected runs the AFLGo-style annealing campaign with caller-provided
// block distances — for callers that already own a distance map (the hybrid
// fallback reuses P2's dynamically refined `cfg.DistancesTo` result rather
// than recomputing from the static CFG). A nil dists degrades to the plain
// AFLFast schedule.
func RunDirected(t *Target, targetFn string, dists *cfg.Distances, c Config) *Result {
	if dists == nil {
		return runShards(t, c, nil, aflfastEnergy)
	}

	// blockDist returns the normalized distance of one block.
	blockDist := func(fn string, b int) (float64, bool) {
		if fn == targetFn {
			return 0, true
		}
		if v, ok := dists.ToEp(fn, b); ok {
			return float64(v), true
		}
		return 0, false
	}
	return runShards(t, c, blockDist, aflgoEnergy)
}

// seedDist is the AFLGo seed distance of the last exec: the mean distance
// of the distinct blocks it entered that have one, +Inf if none has. The
// sum runs in ascending dense block number, which is (function name,
// block) order. Float addition is not associative, so any other order,
// first entry included, would move seed distances and with them every
// campaign trajectory.
func (h *harness) seedDist() float64 {
	slices.Sort(h.visited)
	sum, n := 0.0, 0
	for _, b := range h.visited {
		if d := h.dist[b]; d != noDist {
			sum += d
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// aflgoEnergy anneals between exploration and distance-driven
// exploitation: energy = base^((1-d̃)·(1-T)+T·0.5) style weighting,
// simplified to a power-of-ten factor over the normalized distance.
func aflgoEnergy(s *seedInfo, h *harness, progress float64) int {
	base := aflfastEnergy(s, h, progress)
	if math.IsInf(s.dist, 1) {
		return base / 4
	}
	// Normalize against a nominal distance scale; closer seeds approach
	// weight 10^progress, farther seeds 10^-progress.
	norm := s.dist / (s.dist + 100)
	w := math.Pow(10, (1-2*norm)*progress)
	e := int(float64(base) * w)
	if e < 4 {
		e = 4
	}
	if e > 4096 {
		e = 4096
	}
	return e
}
