package symex

import (
	"errors"

	"octopocs/internal/faultinject"
	"octopocs/internal/isa"
)

// IndirectEdge is a dynamically discovered indirect-call resolution.
type IndirectEdge struct {
	Site   isa.Loc
	Callee string
}

// Discover performs bounded undirected symbolic exploration of the program
// and records every indirect-call resolution it observes. This implements
// the paper's dynamic CFG construction (§ IV-B: "a dynamic CFG is generated
// with symbolic execution; transition appears only in execution time").
//
// Discovery is inherently partial: a site whose index reaches it through a
// transformation the executor must concretize (say, a memory-table lookup
// keyed by input bytes) only reveals the edges of the concretized paths —
// the faithful analog of the angr CFG defect behind the paper's Idx-15
// failure case. Budget exhaustion is expected and non-fatal. The one error
// Discover does surface is an injected transient fault: absorbing it would
// silently yield a different dynamic CFG than the fault-free run, so the
// caller must retry instead of using the partial edge set.
func Discover(prog *isa.Program, cfg NaiveConfig) ([]IndirectEdge, error) {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 128
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 16 << 20
	}
	// Explore with an unmatchable target so the frontier drains or the
	// budgets cap the walk. Depth-first order dives through shallow
	// branching fans to the dispatch sites instead of drowning in them.
	cfg.Target = "\x00discover"
	cfg.DFS = true

	var edges []IndirectEdge
	seen := make(map[IndirectEdge]bool)
	collector := func(site isa.Loc, callee string) {
		e := IndirectEdge{Site: site, Callee: callee}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	_, err := runNaive(prog, cfg, collector)
	if err != nil && !errors.Is(err, ErrMemBudget) {
		if faultinject.IsTransient(err) {
			return edges, err
		}
		// Solver budget blowups etc. leave partial discovery; that is
		// the intended degradation.
		return edges, nil
	}
	return edges, nil
}
