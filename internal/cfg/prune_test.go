package cfg_test

import (
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/mirstatic"
)

// TestBuildPrunedDropsDeadCallEdges checks the distance-map contract of
// the static pre-analysis: a call to ep that lives only behind a
// constant-false guard must vanish from the pruned graph, flipping
// Reachable(ep) and removing the phantom ToEp distances that would
// otherwise steer the frontier at the guard.
func TestBuildPrunedDropsDeadCallEdges(t *testing.T) {
	b := asm.NewBuilder("deadcall")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	m := b.Function("main", 0)
	m.If(m.Const(0), func() {
		m.Call("ep")
	})
	m.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	full := cfg.Build(prog)
	if !full.Reachable("ep") {
		t.Fatal("unpruned graph must keep the dead call edge (static CFGs over-approximate)")
	}
	pruned := cfg.BuildPruned(prog, a)
	if pruned.Reachable("ep") {
		t.Fatal("pruned graph still reports ep reachable through dead code")
	}

	fullD := full.DistancesTo("ep")
	if _, ok := fullD.ToEp("main", 0); !ok {
		t.Error("unpruned entry block should see a (phantom) path to ep")
	}
	prunedD := pruned.DistancesTo("ep")
	if _, ok := prunedD.ToEp("main", 0); ok {
		t.Error("pruned entry block must have no path to ep")
	}
	// ToRet survives pruning: the live exit path is untouched.
	if _, ok := prunedD.ToRet("main", 0); !ok {
		t.Error("pruned graph lost the live path to the exit")
	}
}

// TestBuildPrunedKeepsFoldedEdge checks that a folded branch keeps exactly
// its taken edge and that live call sites are preserved.
func TestBuildPrunedKeepsFoldedEdge(t *testing.T) {
	b := asm.NewBuilder("fold")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	m := b.Function("main", 0)
	m.If(m.Const(1), func() {
		m.Call("ep")
	})
	m.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	pruned := cfg.BuildPruned(prog, a)
	if !pruned.Reachable("ep") {
		t.Fatal("constant-true guard: ep must stay reachable after pruning")
	}
	if got := len(pruned.Succs("main", 0)); got != 1 {
		t.Errorf("folded entry branch has %d successors, want 1", got)
	}
	full := cfg.Build(prog)
	if got := len(full.Succs("main", 0)); got != 2 {
		t.Errorf("unpruned entry branch has %d successors, want 2", got)
	}
}
