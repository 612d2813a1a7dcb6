package symex_test

import (
	"errors"
	"strings"
	"testing"

	"octopocs/internal/absint"
	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/expr"
	"octopocs/internal/isa"
	"octopocs/internal/journal"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
	"octopocs/internal/vm"
)

// runDirected builds distances for ep and runs directed execution with the
// given visitor.
func runDirected(t *testing.T, prog *isa.Program, c symex.Config, visitor symex.Visitor) *symex.Result {
	t.Helper()
	g := cfg.Build(prog)
	c.Distances = g.DistancesTo(c.Target)
	ex := symex.New(prog, c)
	res, err := ex.Run(visitor)
	if err != nil {
		t.Fatalf("Run() error: %v", err)
	}
	return res
}

// stopAtFirst stops at the first ep arrival.
func stopAtFirst(symex.EpEntry, *symex.State) (symex.Decision, error) {
	return symex.Stop, nil
}

// solveInput solves the result constraints into a concrete input.
func solveInput(t *testing.T, res *symex.Result, n int) []byte {
	t.Helper()
	var s solver.Solver
	m, err := s.Solve(res.Constraints)
	if err != nil {
		t.Fatalf("Solve(constraints) = %v", err)
	}
	return m.Fill(n, 0)
}

// headerProg requires the 4-byte magic "MJPG" before calling ep.
func headerProg(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.NewBuilder("hdr")
	ep := b.Function("ep", 1)
	ep.Ret(ep.Param(0))

	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(16))
	f.Sys(isa.SysRead, fd, buf, f.Const(4))
	magic := f.Load(4, buf, 0)
	f.IfElse(f.EqI(magic, 0x47504A4D), // "MJPG" little-endian
		func() { f.Call("ep", fd) },
		func() { f.Exit(1) })
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestDirectedReachesThroughMagicHeader(t *testing.T) {
	prog := headerProg(t)
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 16}, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("result = %v (%s), want reached", res.Kind, res.Why)
	}
	if len(res.Entries) != 1 || res.Entries[0].Seq != 1 {
		t.Fatalf("entries = %v, want one with Seq 1", res.Entries)
	}
	if res.Entries[0].FilePos != 4 {
		t.Errorf("FilePos = %d, want 4 (after the header read)", res.Entries[0].FilePos)
	}
	in := solveInput(t, res, 16)
	if string(in[:4]) != "MJPG" {
		t.Errorf("solved header = %q, want MJPG", in[:4])
	}
	// The guiding input must actually drive the concrete binary to ep.
	entered := false
	hooks := &vm.Hooks{OnCall: func(_ isa.Loc, callee string, _ []uint64, _, _ uint64, _ isa.Reg) {
		if callee == "ep" {
			entered = true
		}
	}}
	vm.New(prog, vm.Config{Input: in, Hooks: hooks}).Run()
	if !entered {
		t.Error("solved input did not reach ep concretely")
	}
}

func TestProgramDeadOnContradiction(t *testing.T) {
	// ep requires byte0 == 5 AND byte0 == 9 on the same path.
	b := asm.NewBuilder("dead")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(1))
	v := f.Load(1, buf, 0)
	f.IfElse(f.EqI(v, 5), func() {
		f.IfElse(f.EqI(v, 9),
			func() { f.Call("ep") },
			func() { f.Exit(1) })
	}, func() { f.Exit(1) })
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 8}, stopAtFirst)
	if res.Reached() {
		t.Fatal("reached ep through a contradiction")
	}
	// The directed policy exits via the feasible alternative and the
	// program exits without ep: that is KindExited, which the pipeline
	// treats as ep-not-reached. (Program-dead arises when no feasible
	// direction exists at all; see the loop test.)
	if res.Kind != symex.KindExited && res.Kind != symex.KindProgramDead {
		t.Fatalf("kind = %v, want exited or program-dead", res.Kind)
	}
}

func TestLoopEntriesAndBunchPlacement(t *testing.T) {
	// main loops reading a 1-byte tag: tag 1 → call ep (reads 2 bytes);
	// tag 0 → end. Visitor pins each ep chunk to distinct bytes and stops
	// after two entries.
	b := asm.NewBuilder("loop")
	ep := b.Function("ep", 1) // (fd)
	buf := ep.Sys(isa.SysAlloc, ep.Const(8))
	ep.Sys(isa.SysRead, ep.Param(0), buf, ep.Const(2))
	ep.Ret(ep.Load(1, buf, 0))

	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	tag := f.Sys(isa.SysAlloc, f.Const(8))
	done := f.VarI(0)
	f.While(func() isa.Reg { return f.EqI(done, 0) }, func() {
		n := f.Sys(isa.SysRead, fd, tag, f.Const(1))
		f.IfElse(f.EqI(n, 0), func() { f.AssignI(done, 1) }, func() {
			tv := f.Load(1, tag, 0)
			f.IfElse(f.EqI(tv, 1),
				func() { f.Call("ep", fd) },
				func() { f.AssignI(done, 1) })
		})
	})
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	bunches := [][]byte{{0xAA, 0xBB}, {0xCC, 0xDD}}
	var positions []int64
	visitor := func(entry symex.EpEntry, st *symex.State) (symex.Decision, error) {
		positions = append(positions, entry.FilePos)
		for i, bv := range bunches[entry.Seq-1] {
			st.AddConstraint(expr.Bin(expr.OpEq,
				expr.Sym(int(entry.FilePos)+i), expr.Const(uint64(bv))))
		}
		if entry.Seq == len(bunches) {
			return symex.Stop, nil
		}
		return symex.Continue, nil
	}
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 16}, visitor)
	if !res.Reached() {
		t.Fatalf("result = %v (%s), want reached", res.Kind, res.Why)
	}
	if len(positions) != 2 {
		t.Fatalf("ep entries = %d, want 2", len(positions))
	}
	// Entry 1 after reading 1 tag byte → pos 1; ep consumes 2 → next tag
	// at 3 → entry 2 at pos 4.
	if positions[0] != 1 || positions[1] != 4 {
		t.Fatalf("positions = %v, want [1 4]", positions)
	}
	in := solveInput(t, res, 16)
	if in[0] != 1 || in[3] != 1 {
		t.Errorf("tags = %d,%d want 1,1 (guiding input)", in[0], in[3])
	}
	if in[1] != 0xAA || in[2] != 0xBB || in[4] != 0xCC || in[5] != 0xDD {
		t.Errorf("bunches misplaced: % x", in[:6])
	}
}

func TestLoopDeadWhenExitImpossible(t *testing.T) {
	// The loop exit requires byte0 == 7, but an earlier guard already
	// pinned byte0 != 7: no iteration count can exit, and every further
	// iteration re-reads the same decision → loop-dead within θ.
	b := asm.NewBuilder("loopdead")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(1))
	v := f.Load(1, buf, 0)
	f.IfElse(f.EqI(v, 7), func() { f.Exit(1) }, func() {})
	// Loop: only exits when v == 7 (impossible now); body does nothing.
	f.While(func() isa.Reg { return f.NeI(v, 7) }, func() {})
	f.Call("ep")
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 8, Theta: 16}, stopAtFirst)
	if res.Reached() {
		t.Fatal("reached ep through an impossible loop exit")
	}
	if res.Kind != symex.KindLoopDead {
		t.Fatalf("kind = %v (%s), want loop-dead", res.Kind, res.Why)
	}
}

func TestThetaBoundsSymbolicLoop(t *testing.T) {
	// Loop consumes one byte per iteration and exits on byte==0; ep is
	// called after. Directed execution must find an exit within θ
	// iterations — via the backtracking retry policy — and produce a
	// guiding input whose concrete run reaches ep.
	b := asm.NewBuilder("theta")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	going := f.VarI(1)
	f.While(func() isa.Reg { return going }, func() {
		f.Sys(isa.SysRead, fd, buf, f.Const(1))
		v := f.Load(1, buf, 0)
		f.If(f.EqI(v, 0), func() { f.AssignI(going, 0) })
	})
	f.Call("ep")
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 8}, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("result = %v (%s), want reached", res.Kind, res.Why)
	}
	in := solveInput(t, res, 8)
	// Some byte must be zero so the loop exits.
	hasZero := false
	for _, v := range in {
		hasZero = hasZero || v == 0
	}
	if !hasZero {
		t.Errorf("input % x has no loop-exit byte", in)
	}
	// The guiding input must drive the concrete binary to ep.
	entered := false
	hooks := &vm.Hooks{OnCall: func(_ isa.Loc, callee string, _ []uint64, _, _ uint64, _ isa.Reg) {
		entered = entered || callee == "ep"
	}}
	vm.New(prog, vm.Config{Input: in, Hooks: hooks}).Run()
	if !entered {
		t.Error("solved input did not reach ep concretely")
	}
}

func TestIndirectCallPinnedTowardTarget(t *testing.T) {
	// calli through a table: slot 2 leads to ep. The symbolic index must
	// be pinned to 2.
	b := asm.NewBuilder("ind")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	h1 := b.Function("h1", 0)
	h1.RetI(0)
	h2 := b.Function("h2", 0)
	h2.Call("ep")
	h2.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(1))
	idx := f.Load(1, buf, 0)
	f.CallInd(idx)
	f.Exit(0)
	b.Entry("main")
	b.FuncTable("h1", "", "h2")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 8}, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("result = %v (%s), want reached", res.Kind, res.Why)
	}
	in := solveInput(t, res, 8)
	if in[0] != 2 {
		t.Errorf("in[0] = %d, want 2 (table slot reaching ep)", in[0])
	}
}

func TestEpArgsExposed(t *testing.T) {
	// ep(tag) where tag comes from the input; the visitor must see the
	// symbolic argument and be able to pin it.
	b := asm.NewBuilder("args")
	ep := b.Function("ep", 1)
	ep.Ret(ep.Param(0))
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(1))
	f.Call("ep", f.Load(1, buf, 0))
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	visitor := func(entry symex.EpEntry, st *symex.State) (symex.Decision, error) {
		if len(entry.Args) != 1 {
			t.Fatalf("args = %d, want 1", len(entry.Args))
		}
		st.AddConstraint(expr.Bin(expr.OpEq, entry.Args[0], expr.Const(0x5D)))
		return symex.Stop, nil
	}
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 8}, visitor)
	if !res.Reached() {
		t.Fatalf("result = %v, want reached", res.Kind)
	}
	in := solveInput(t, res, 8)
	if in[0] != 0x5D {
		t.Errorf("in[0] = %#x, want 0x5D (pinned ep arg)", in[0])
	}
}

func TestHardcodedArgVisible(t *testing.T) {
	// T calls ep with a constant 0x77: the visitor sees a concrete arg it
	// can compare against recorded context (the Idx-10..12 mechanism).
	b := asm.NewBuilder("hard")
	ep := b.Function("ep", 1)
	ep.Ret(ep.Param(0))
	f := b.Function("main", 0)
	f.Call("ep", f.Const(0x77))
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var seen uint64
	visitor := func(entry symex.EpEntry, st *symex.State) (symex.Decision, error) {
		v, ok := entry.Args[0].IsConst()
		if !ok {
			t.Fatal("arg should be concrete")
		}
		seen = v
		return symex.Stop, nil
	}
	res := runDirected(t, prog, symex.Config{Target: "ep"}, visitor)
	if !res.Reached() || seen != 0x77 {
		t.Fatalf("reached=%v seen=%#x, want true/0x77", res.Reached(), seen)
	}
}

func TestExitedBeforeTarget(t *testing.T) {
	b := asm.NewBuilder("exit")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := runDirected(t, prog, symex.Config{Target: "ep"}, stopAtFirst)
	if res.Reached() || res.Kind != symex.KindExited {
		t.Fatalf("kind = %v, want exited", res.Kind)
	}
}

func TestCrashedState(t *testing.T) {
	b := asm.NewBuilder("crash")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	f.Ret(f.Load(8, f.Const(0), 8)) // null deref before ep
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := runDirected(t, prog, symex.Config{Target: "ep"}, stopAtFirst)
	if res.Kind != symex.KindCrashed {
		t.Fatalf("kind = %v, want crashed", res.Kind)
	}
}

func TestRunRequiresDistances(t *testing.T) {
	prog := headerProg(t)
	ex := symex.New(prog, symex.Config{Target: "ep"})
	if _, err := ex.Run(stopAtFirst); !errors.Is(err, symex.ErrNoDistances) {
		t.Fatalf("Run() = %v, want ErrNoDistances", err)
	}
}

func TestNaiveReachesSmallProgram(t *testing.T) {
	prog := headerProg(t)
	res, err := symex.RunNaive(prog, symex.NaiveConfig{Target: "ep", InputSize: 16})
	if err != nil {
		t.Fatalf("RunNaive() = %v", err)
	}
	if !res.Reached() {
		t.Fatalf("kind = %v (%s), want reached", res.Kind, res.Why)
	}
	if res.Stats.States < 1 {
		t.Error("no states recorded")
	}
}

// branchyProg has k sequential independent symbolic branches before ep —
// 2^k paths for naive exploration.
func branchyProg(t *testing.T, k int) *isa.Program {
	t.Helper()
	b := asm.NewBuilder("branchy")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(64))
	f.Sys(isa.SysRead, fd, buf, f.Const(int64(k+1)))
	acc := f.VarI(0)
	for i := 0; i < k; i++ {
		v := f.Load(1, buf, int64(i))
		f.IfElse(f.GtI(v, 100),
			func() { f.Assign(acc, f.AddI(acc, 1)) },
			func() { f.Assign(acc, f.AddI(acc, 2)) })
	}
	// ep gated on the last byte so the target sits past the blowup.
	last := f.Load(1, buf, int64(k))
	f.If(f.EqI(last, 0x42), func() { f.Call("ep") })
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestNaiveMemoryBlowup(t *testing.T) {
	prog := branchyProg(t, 14)
	_, err := symex.RunNaive(prog, symex.NaiveConfig{
		Target:    "ep",
		InputSize: 64,
		MemBudget: 1 << 20, // 1 MiB simulated budget
	})
	if !errors.Is(err, symex.ErrMemBudget) {
		t.Fatalf("RunNaive() = %v, want ErrMemBudget", err)
	}
}

func TestDirectedHandlesBranchyProgram(t *testing.T) {
	prog := branchyProg(t, 14)
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 64}, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("kind = %v (%s), want reached", res.Kind, res.Why)
	}
	if res.Stats.States != 1 {
		t.Errorf("states = %d, want 1 (single directed path)", res.Stats.States)
	}
	in := solveInput(t, res, 64)
	if in[14] != 0x42 {
		t.Errorf("in[14] = %#x, want 0x42", in[14])
	}
}

// oracleProg gates ep behind a branch absint proves: the sum of a loaded
// byte with itself is at most 510, so the bound check can never fail. The
// condition is symbolic to the executor (it depends on input) and composite
// enough that the expression simplifier cannot fold it, so without the
// oracle it costs SAT checks.
func oracleProg(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.NewBuilder("oracle")
	ep := b.Function("ep", 1)
	ep.Ret(ep.Param(0))

	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(16))
	f.Sys(isa.SysRead, fd, buf, f.Const(4))
	x := f.Load(1, buf, 0)
	y := f.Add(x, x) // [0, 510] by the load width
	f.IfElse(f.CmpI(isa.Lt, y, 1024),
		func() {
			f.IfElse(f.EqI(f.Load(1, buf, 1), 0x4D),
				func() { f.Call("ep", fd) },
				func() { f.Exit(2) })
		},
		func() { f.Exit(1) }) // absint-refuted arm
	f.Exit(0)
	b.Entry("main")
	return b.MustBuild()
}

// TestOracleDischargesBranch pins the absint oracle contract end to end:
// with the oracle on, the run reaches ep with an identical constraint set
// and solved input, spends fewer SAT checks, and counts the discharges.
func TestOracleDischargesBranch(t *testing.T) {
	prog := oracleProg(t)
	off := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 16}, stopAtFirst)
	on := runDirected(t, prog, symex.Config{
		Target: "ep", InputSize: 16, Oracle: absint.Analyze(prog),
	}, stopAtFirst)

	if !off.Reached() || !on.Reached() {
		t.Fatalf("reached: off=%v on=%v", off.Kind, on.Kind)
	}
	inOff := solveInput(t, off, 16)
	inOn := solveInput(t, on, 16)
	if string(inOff) != string(inOn) {
		t.Errorf("solved inputs diverge: %x vs %x", inOff, inOn)
	}
	if len(on.Constraints) != len(off.Constraints) {
		t.Errorf("constraint sets diverge: %d vs %d", len(on.Constraints), len(off.Constraints))
	}
	if on.Stats.SatDischargedStatic == 0 {
		t.Error("oracle run discharged nothing")
	}
	if off.Stats.SatDischargedStatic != 0 {
		t.Error("oracle-off run counted discharges")
	}
	if on.Stats.SatChecks >= off.Stats.SatChecks {
		t.Errorf("oracle did not reduce SAT checks: on=%d off=%d",
			on.Stats.SatChecks, off.Stats.SatChecks)
	}
}

// TestOracleJournalsDischarges pins the provenance trail: a verbose
// journal records one symex.absint_discharged event per discharge, and
// the generic renderer shows it under the symex phase.
func TestOracleJournalsDischarges(t *testing.T) {
	prog := oracleProg(t)
	jr := journal.New("test", journal.Options{Verbosity: journal.VerbVerbose})
	res := runDirected(t, prog, symex.Config{
		Target: "ep", InputSize: 16, Oracle: absint.Analyze(prog), Journal: jr,
	}, stopAtFirst)
	var discharged int64
	for _, ev := range jr.Events() {
		if ev.Type == journal.EvSymexAbsint {
			discharged++
		}
	}
	if discharged != res.Stats.SatDischargedStatic || discharged == 0 {
		t.Fatalf("journal records %d discharges, stats say %d",
			discharged, res.Stats.SatDischargedStatic)
	}
	out := journal.Render(jr.Events(), journal.RenderOptions{All: true})
	if !strings.Contains(out, "symex.absint_discharged") {
		t.Errorf("rendered journal does not show the discharge:\n%s", out)
	}
}

// TestOracleNaive pins the same contract on the naive fork loop.
func TestOracleNaive(t *testing.T) {
	prog := oracleProg(t)
	off, err := symex.RunNaive(prog, symex.NaiveConfig{Target: "ep", InputSize: 16})
	if err != nil {
		t.Fatalf("off: %v", err)
	}
	on, err := symex.RunNaive(prog, symex.NaiveConfig{Target: "ep", InputSize: 16, Oracle: absint.Analyze(prog)})
	if err != nil {
		t.Fatalf("on: %v", err)
	}
	if !off.Reached() || !on.Reached() {
		t.Fatalf("reached: off=%v on=%v", off.Kind, on.Kind)
	}
	if string(solveInput(t, off, 16)) != string(solveInput(t, on, 16)) {
		t.Error("solved inputs diverge")
	}
	if on.Stats.SatDischargedStatic == 0 {
		t.Error("nothing discharged")
	}
	if on.Stats.SatChecks >= off.Stats.SatChecks {
		t.Errorf("SAT checks not reduced (on=%d off=%d)", on.Stats.SatChecks, off.Stats.SatChecks)
	}
}
