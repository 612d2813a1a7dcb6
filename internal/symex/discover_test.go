package symex_test

import (
	"slices"
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/corpus"
	"octopocs/internal/isa"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
	"octopocs/internal/telemetry"
)

// dispatchProg dispatches through a table indexed directly by an input
// byte (resolvable) or through a runtime memory table (the angr-defect
// analog, unresolvable for a concretizing explorer).
func dispatchProg(t *testing.T, viaMemoryTable bool) *isa.Program {
	t.Helper()
	b := asm.NewBuilder("disp")
	for _, name := range []string{"h0", "h1", "h2"} {
		h := b.Function(name, 0)
		h.RetI(0)
	}
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(1))
	f.Sys(isa.SysRead, fd, buf, f.Const(1))
	sel := f.Load(1, buf, 0)
	f.If(f.GtI(sel, 2), func() { f.Exit(1) })
	if viaMemoryTable {
		table := f.Sys(isa.SysAlloc, f.Const(4))
		j := f.VarI(0)
		f.While(func() isa.Reg { return f.LtI(j, 4) }, func() {
			f.Store(1, f.Add(table, j), 0, f.AndI(j, 3))
			f.Assign(j, f.AddI(j, 1))
		})
		sel = f.Load(1, f.Add(table, sel), 0)
	}
	f.CallInd(sel)
	f.Exit(0)
	b.Entry("main")
	b.FuncTable("h0", "h1", "h2")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestDiscoverFindsAllDirectDispatchTargets(t *testing.T) {
	prog := dispatchProg(t, false)
	edges, err := symex.Discover(prog, symex.NaiveConfig{InputSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, e := range edges {
		targets[e.Callee] = true
	}
	for _, want := range []string{"h0", "h1", "h2"} {
		if !targets[want] {
			t.Errorf("edge to %s not discovered (got %v)", want, edges)
		}
	}
}

func TestDiscoverPartialThroughMemoryTable(t *testing.T) {
	// The memory-table indirection forces address concretization: only
	// the slot of the concretized path is discovered — the Idx-15
	// failure ingredient.
	prog := dispatchProg(t, true)
	edges, err := symex.Discover(prog, symex.NaiveConfig{InputSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, e := range edges {
		targets[e.Callee] = true
	}
	if len(targets) >= 3 {
		t.Errorf("discovery should be partial through a memory table, got %v", edges)
	}
	if len(edges) == 0 {
		t.Error("discovery should still resolve the concretized slot")
	}
}

func TestDiscoverDeduplicatesEdges(t *testing.T) {
	prog := dispatchProg(t, false)
	edges, err := symex.Discover(prog, symex.NaiveConfig{InputSize: 8, MaxStates: 512})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[symex.IndirectEdge]bool{}
	for _, e := range edges {
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestDiscoverHonorsBudgets(t *testing.T) {
	prog := dispatchProg(t, false)
	// A one-state budget cannot reach the dispatch.
	edges, err := symex.Discover(prog, symex.NaiveConfig{InputSize: 8, MaxStates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 {
		t.Errorf("edges = %v with a one-state budget", edges)
	}
}

// TestDiscoverUsesSolverCache checks that Discover threads
// NaiveConfig.SolverCache into its feasibility checks, as the pipeline's
// P2 preparation relies on, and that the cache changes only the work: on
// rows 19 and 20 the discovered edges and the number of SAT checks are
// the same with and without it.
func TestDiscoverUsesSolverCache(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus discovery is not short")
	}
	for _, idx := range []int{19, 20} {
		pair := corpus.ByIdx(idx).Pair
		discover := func(cache *solver.Cache) ([]symex.IndirectEdge, uint64) {
			m := &symex.Metrics{SatChecks: telemetry.NewRegistry().Counter("sat_checks", "", nil)}
			edges, err := symex.Discover(pair.T, symex.NaiveConfig{
				InputSize:   len(pair.PoC) + 64,
				MaxSteps:    pair.MaxSteps,
				Metrics:     m,
				SolverCache: cache,
			})
			if err != nil {
				t.Fatalf("row %d: Discover: %v", idx, err)
			}
			return edges, m.SatChecks.Value()
		}
		plainEdges, plainChecks := discover(nil)
		cache := solver.NewCache(0)
		edges, checks := discover(cache)
		if st := cache.Stats(); st.Hits+st.Misses == 0 {
			t.Errorf("row %d: Discover recorded no SAT lookups in its cache", idx)
		}
		if !slices.Equal(edges, plainEdges) || checks != plainChecks {
			t.Errorf("row %d: with cache %v edges, %d SAT checks; without %v, %d",
				idx, edges, checks, plainEdges, plainChecks)
		}
		if checks == 0 {
			t.Errorf("row %d: Discover issued no SAT checks", idx)
		}
	}
}
