package symex_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/expr"
	"octopocs/internal/isa"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
)

// sliceDiff re-solves every feasibility check over the whole path
// condition and extra constraint, at budget, and counts the checks whose
// independent slice answered differently. Where the whole-path solve runs
// out of budget there is no reference verdict, and the check only counts.
type sliceDiff struct {
	budget int64

	mu         sync.Mutex
	checks     int
	decided    int
	mismatches []string
}

// install hooks d into every feasibility check until the test ends.
func (d *sliceDiff) install(t *testing.T) {
	t.Cleanup(symex.SetSliceHook(func(pc []*expr.Expr, extra *expr.Expr, ok bool, err error) {
		s := solver.Solver{Budget: d.budget}
		fullOK, fullErr := s.Sat(append(slices.Clip(pc), extra))
		d.mu.Lock()
		defer d.mu.Unlock()
		d.checks++
		if fullErr != nil {
			return
		}
		d.decided++
		if err != nil || ok != fullOK {
			d.mismatches = append(d.mismatches, fmt.Sprintf(
				"path of %d constraints + %v: slice %v, %v; whole path %v",
				len(pc), extra, ok, err, fullOK))
		}
	}))
}

// check fails t when a check disagreed or too few checks were compared.
func (d *sliceDiff) check(t *testing.T, minDecided int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	t.Logf("%d feasibility checks, %d decided by the whole path", d.checks, d.decided)
	for i, m := range d.mismatches {
		if i == 5 {
			t.Errorf("... and %d more", len(d.mismatches)-i)
			break
		}
		t.Error(m)
	}
	if d.decided < minDecided {
		t.Errorf("only %d checks decided by the whole path, want >= %d", d.decided, minDecided)
	}
}

// TestSliceMatchesWholePathCorpus verifies all corpus rows on the default
// pipeline and with static pruning, absint and hybrid fuzzing on, and
// requires every feasibility check's slice to reach the verdict the whole
// path condition reaches.
func TestSliceMatchesWholePathCorpus(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{}},
		{"static+absint+hybrid", core.Config{StaticPrune: true, Absint: true, HybridFuzz: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := &sliceDiff{budget: solver.DefaultBudget}
			d.install(t)
			pl := core.New(c.cfg)
			for _, row := range corpus.Rows() {
				if _, err := pl.Verify(row.Pair); err != nil {
					t.Fatalf("row %d: %v", row.Idx, err)
				}
			}
			d.check(t, 1000)
		})
	}
}

// TestSliceMatchesWholePathBench runs the SymexBench workloads at small
// depths, on two explorers as the ledger does, with the same check.
func TestSliceMatchesWholePathBench(t *testing.T) {
	for _, spec := range corpus.SymexBenchAt(6, 3) {
		t.Run(spec.Name, func(t *testing.T) {
			d := &sliceDiff{budget: 1 << 27}
			d.install(t)
			res, err := symex.New(spec.Prog, symex.Config{
				Target:        spec.Target,
				InputSize:     spec.InputSize,
				Distances:     cfg.Build(spec.Prog).DistancesTo(spec.Target),
				MaxBacktracks: 1 << 20,
				SatBudget:     1 << 27,
				Workers:       2,
			}).Run(stopAtFirst)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reached() || res.Stats.States != spec.Leaves {
				t.Fatalf("reached %v, %d states, want %d unreached leaves", res.Reached(), res.Stats.States, spec.Leaves)
			}
			d.check(t, spec.Leaves)
		})
	}
}

// unverifiedTailProg calls ep, branches on input byte 1, then branches on
// input byte 0 and calls ep again on the taken arm. Nothing reads byte 5.
func unverifiedTailProg(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.NewBuilder("unverified-tail")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(8))
	acc := f.VarI(0)
	f.Call("ep")
	f.If(f.EqI(f.Load(1, buf, 1), 3), func() { f.Assign(acc, f.AddI(acc, 1)) })
	f.If(f.EqI(f.Load(1, buf, 0), 7), func() { f.Call("ep") })
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// firstBranchOracle claims that every execution takes the then arm of
// main's first conditional branch.
type firstBranchOracle struct{ block, taken int }

func (o firstBranchOracle) BranchProved(fn string, block int) (int, bool) {
	return o.taken, fn == "main" && block == o.block
}

func newFirstBranchOracle(t *testing.T, prog *isa.Program) firstBranchOracle {
	t.Helper()
	for i, b := range prog.Func("main").Blocks {
		if last := b.Insts[len(b.Insts)-1]; last.Op == isa.OpBr {
			return firstBranchOracle{block: i, taken: last.ThenIdx}
		}
	}
	t.Fatal("main has no conditional branch")
	return firstBranchOracle{}
}

// TestSliceKeepsUnverifiedConstraints: constraints a visitor adds through
// State.AddConstraint are not known satisfiable, so they stay in every
// later slice even when they share no symbol with the branch. Here they
// contradict each other (in5 == 1, in5 == 2), so the next branch checked
// must be infeasible both ways and the second ep call never happen. With
// an oracle that discharges the branch on byte 1, the arm it commits must
// not make the contradiction known satisfiable: the branch on byte 0
// still fails.
func TestSliceKeepsUnverifiedConstraints(t *testing.T) {
	in5 := expr.Sym(5)
	visitor := func(entry symex.EpEntry, st *symex.State) (symex.Decision, error) {
		if entry.Seq > 1 {
			return symex.Stop, nil
		}
		st.AddConstraint(expr.Bin(expr.OpEq, in5, expr.Const(1)))
		st.AddConstraint(expr.Bin(expr.OpEq, in5, expr.Const(2)))
		return symex.Continue, nil
	}
	prog := unverifiedTailProg(t)
	for _, oracle := range []symex.StaticOracle{nil, newFirstBranchOracle(t, prog)} {
		for _, workers := range []int{1, 2} {
			c := symex.Config{Target: "ep", InputSize: 8, Oracle: oracle}
			res := runFrontierDirected(t, prog, c, workers, visitor)
			if res.Reached() || len(res.Entries) != 1 {
				t.Fatalf("oracle %v, workers=%d: kind=%v, %d ep entries; the contradictory placement must stop the path after entry 1",
					oracle != nil, workers, res.Kind, len(res.Entries))
			}
			if res.Kind != symex.KindProgramDead {
				t.Errorf("oracle %v, workers=%d: kind=%v (%s), want program-dead at a branch",
					oracle != nil, workers, res.Kind, res.Why)
			}
		}
	}
}
