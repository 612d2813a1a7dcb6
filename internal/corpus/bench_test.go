package corpus_test

import (
	"fmt"
	"testing"

	"octopocs/internal/absint"
	"octopocs/internal/cfg"
	"octopocs/internal/corpus"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
)

// symexBenchRun performs one full directed exploration of spec. The search
// space is exhaustive by construction (the target gate is unsatisfiable),
// so the run retires all 2^depth leaves. oracle, when non-nil, is the
// absint branch oracle; it is deliberately passed as Oracle only — never as
// a CFG pruner — because pruning the proven-dead gate arm would remove the
// workload's only path to the target and turn the run into ErrNoDistances.
func symexBenchRun(spec *corpus.SymexBenchSpec, workers int, cache *solver.Cache, oracle symex.StaticOracle) (*symex.Result, error) {
	g := cfg.Build(spec.Prog)
	ex := symex.New(spec.Prog, symex.Config{
		Target:        spec.Target,
		InputSize:     spec.InputSize,
		Distances:     g.DistancesTo(spec.Target),
		MaxBacktracks: 1 << 20,
		// A two-symbol congruence costs 16,640 evaluations per filtering
		// pass over full domains; the default budget trips on deep
		// prefixes.
		SatBudget:   1 << 27,
		Workers:     workers,
		SolverCache: cache,
		Oracle:      oracle,
	})
	return ex.Run(func(symex.EpEntry, *symex.State) (symex.Decision, error) {
		return symex.Stop, nil
	})
}

// TestBenchSymexWorkloadsExhaustive checks the premise of the SymexBench
// workloads: the target gate is unsatisfiable, so a directed run never
// commits a success and must retire the full 2^depth search tree. It also
// pins the absint oracle's effect on them — at least a 25% drop in SAT
// checks — on one explorer and on the parallel frontier.
func TestBenchSymexWorkloadsExhaustive(t *testing.T) {
	for _, spec := range corpus.SymexBench() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				workers := workers
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					cache := solver.NewCache(0)
					res, err := symexBenchRun(spec, workers, cache, nil)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if res.Reached() {
						t.Fatalf("benchmark target reached; the gate must be unsatisfiable")
					}
					if res.Stats.States < spec.Leaves {
						t.Errorf("explored %d states, want >= %d leaves (search not exhaustive)",
							res.Stats.States, spec.Leaves)
					}
					// Re-exploring the identical program must be answered from
					// the memoized verdict cache.
					before := cache.Stats()
					if _, err := symexBenchRun(spec, workers, cache, nil); err != nil {
						t.Fatalf("re-run: %v", err)
					}
					if after := cache.Stats(); after.Hits <= before.Hits {
						t.Errorf("cache hits did not grow on re-exploration: %+v -> %+v", before, after)
					}
					// The absint oracle proves the unsatisfiable target gate (a
					// byte masked to one bit can never exceed 1), discharging its
					// per-leaf refutation; the search stays exhaustive and
					// unreached, with at least 25% fewer solver calls.
					ores, err := symexBenchRun(spec, workers, nil, absint.Analyze(spec.Prog))
					if err != nil {
						t.Fatalf("oracle run: %v", err)
					}
					if ores.Reached() {
						t.Fatalf("oracle run reached the unsatisfiable target")
					}
					if ores.Stats.SatDischargedStatic == 0 {
						t.Errorf("oracle run discharged no branches")
					}
					if ores.Stats.SatChecks > res.Stats.SatChecks*3/4 {
						t.Errorf("oracle run sat checks %d, want <= 75%% of baseline %d",
							ores.Stats.SatChecks, res.Stats.SatChecks)
					}
				})
			}
		})
	}
}
