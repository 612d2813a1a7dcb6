package mirstatic_test

import (
	"strings"
	"testing"

	"octopocs/internal/absint"
	"octopocs/internal/asm"
	"octopocs/internal/isa"
	"octopocs/internal/mirstatic"
)

// TestConstantFoldKillsGuardedRegion checks the tentpole behavior end to
// end on one function: a branch guarded by a compile-time zero folds, the
// guarded region dies, and ep becomes statically unreachable.
func TestConstantFoldKillsGuardedRegion(t *testing.T) {
	b := asm.NewBuilder("fold")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	m := b.Function("main", 0)
	flag := m.Const(0)
	m.If(flag, func() {
		m.Call("ep")
	})
	m.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Summary.FoldedBranches == 0 {
		t.Error("expected at least one folded branch")
	}
	if a.Summary.DeadBlocks == 0 {
		t.Error("expected dead blocks from the folded guard")
	}
	if a.Summary.DeadRegions == 0 || a.Summary.DeadRegionBlocks == 0 {
		t.Errorf("expected a dominator-proved dead region, got summary %v", a.Summary)
	}
	if !a.EpUnreachable("ep") {
		t.Error("ep is only called under a constant-false guard; want statically unreachable")
	}
	if a.Reachable["ep"] {
		t.Error("ep must not be in the reachable-function closure")
	}
	// The dead call block must be reported dead, and the fold must point
	// at the surviving successor.
	mainFn := prog.Func("main")
	deadFound := false
	for blk := range mainFn.Blocks {
		if a.DeadBlock("main", blk) {
			deadFound = true
		}
	}
	if !deadFound {
		t.Error("no dead block reported in main")
	}
	folded := false
	for blk := range mainFn.Blocks {
		if taken, ok := a.BranchTaken("main", blk); ok {
			folded = true
			if a.DeadBlock("main", taken) {
				t.Errorf("folded branch at main:%d takes dead block %d", blk, taken)
			}
		}
	}
	if !folded {
		t.Error("no folded branch reported in main")
	}
}

// TestInputDependentBranchDoesNotFold is the negative control: a condition
// derived from attacker input must stay unfolded and keep ep reachable.
func TestInputDependentBranchDoesNotFold(t *testing.T) {
	b := asm.NewBuilder("live")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	m := b.Function("main", 0)
	n := m.Sys(isa.SysArgLen)
	m.If(m.GtI(n, 4), func() {
		m.Call("ep")
	})
	m.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Summary.FoldedBranches != 0 {
		t.Errorf("input-dependent branch folded: %v", a.Summary)
	}
	if a.EpUnreachable("ep") {
		t.Error("ep reachable through a live branch reported unreachable (unsound)")
	}
}

// TestIndirectCallWidening checks the may-call-anything over-approximation:
// a reachable indirect call with an unresolvable (empty) function-table
// slot forces every function reachable, so ep can never be proved
// unreachable; with a fully resolved table that omits ep, the proof holds.
func TestIndirectCallWidening(t *testing.T) {
	build := func(table ...string) *isa.Program {
		b := asm.NewBuilder("widen")
		ep := b.Function("ep", 0)
		ep.RetI(0)
		h := b.Function("h", 0)
		h.RetI(0)
		m := b.Function("main", 0)
		idx := m.Sys(isa.SysArgLen)
		m.CallInd(idx)
		m.Exit(0)
		b.Entry("main")
		b.FuncTable(table...)
		return b.MustBuild()
	}

	withEmpty, err := mirstatic.Analyze(build("h", ""), nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if withEmpty.EpUnreachable("ep") {
		t.Error("unresolved functable slot must widen to may-call-anything; ep reported unreachable")
	}

	resolved, err := mirstatic.Analyze(build("h"), nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !resolved.EpUnreachable("ep") {
		t.Error("fully resolved table without ep: want ep statically unreachable")
	}
	if !resolved.Reachable["h"] {
		t.Error("functable entry h must be reachable through the indirect call")
	}
}

// rawDiamond builds entry -> {a,b} -> join -> (ret) with explicit block
// indices 0..3 for precise dominator assertions.
func rawDiamond(t *testing.T) *isa.Program {
	t.Helper()
	fn := &isa.Function{
		Name:    "f",
		NParams: 1,
		Blocks: []*isa.Block{
			{Name: "entry", Insts: []isa.Inst{{Op: isa.OpBr, A: 0, Then: "a", Else: "b"}}},
			{Name: "a", Insts: []isa.Inst{{Op: isa.OpJmp, Then: "j"}}},
			{Name: "b", Insts: []isa.Inst{{Op: isa.OpJmp, Then: "j"}}},
			{Name: "j", Insts: []isa.Inst{{Op: isa.OpRet, A: 0}}},
		},
	}
	prog := &isa.Program{Name: "p", Entry: "f", Funcs: []*isa.Function{fn}}
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return prog
}

func TestDominatorsDiamond(t *testing.T) {
	prog := rawDiamond(t)
	f := prog.Func("f")

	idom := mirstatic.Dominators(f)
	want := []int{0, 0, 0, 0}
	for b, w := range want {
		if idom[b] != w {
			t.Errorf("idom[%d] = %d, want %d", b, idom[b], w)
		}
	}
	ipdom := mirstatic.PostDominators(f)
	// Join post-dominates everything; exit-terminated join maps to -1.
	wantP := []int{3, 3, 3, -1}
	for b, w := range wantP {
		if ipdom[b] != w {
			t.Errorf("ipdom[%d] = %d, want %d", b, ipdom[b], w)
		}
	}

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !a.Dominates("f", 0, 3) || a.Dominates("f", 1, 3) {
		t.Error("entry must dominate join; a side arm must not")
	}
	if !a.PostDominates("f", 3, 0) || a.PostDominates("f", 1, 0) {
		t.Error("join must post-dominate entry; a side arm must not")
	}
	if got := a.MustPass("f"); len(got) != 1 || got[0] != 3 {
		t.Errorf("MustPass = %v, want [3]", got)
	}
}

func TestDominatorsUnreachableBlock(t *testing.T) {
	fn := &isa.Function{
		Name:    "f",
		NParams: 0,
		Blocks: []*isa.Block{
			{Name: "entry", Insts: []isa.Inst{{Op: isa.OpRet, A: 0}}},
			{Name: "orphan", Insts: []isa.Inst{{Op: isa.OpTrap, Imm: 0xFE}}},
		},
	}
	prog := &isa.Program{Name: "p", Entry: "f", Funcs: []*isa.Function{fn}}
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	idom := mirstatic.Dominators(prog.Func("f"))
	if idom[0] != 0 || idom[1] != -1 {
		t.Errorf("idom = %v, want [0 -1]", idom)
	}
}

// TestLoopPostDominators checks the infinite-loop convention: a block that
// never reaches an exit has no post-dominator.
func TestLoopPostDominators(t *testing.T) {
	fn := &isa.Function{
		Name:    "f",
		NParams: 0,
		Blocks: []*isa.Block{
			{Name: "entry", Insts: []isa.Inst{{Op: isa.OpJmp, Then: "spin"}}},
			{Name: "spin", Insts: []isa.Inst{{Op: isa.OpJmp, Then: "spin"}}},
		},
	}
	prog := &isa.Program{Name: "p", Entry: "f", Funcs: []*isa.Function{fn}}
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ipdom := mirstatic.PostDominators(prog.Func("f"))
	if ipdom[0] != -1 && ipdom[0] != 1 {
		t.Errorf("ipdom[entry] = %d", ipdom[0])
	}
	if ipdom[1] != -1 {
		t.Errorf("ipdom[spin] = %d, want -1 (no exit reachable)", ipdom[1])
	}
}

// TestAnalyzeRejectsMalformed checks that Analyze runs isa's Check on a
// linked program: each structural error, in a program of its own, makes it
// fail fast with a "malformed" error naming the fault.
func TestAnalyzeRejectsMalformed(t *testing.T) {
	tests := []struct {
		name    string
		bad     isa.Inst
		wantSub string
	}{
		{"register out of range", isa.Inst{Op: isa.OpConst, Dst: 250, Imm: 1}, "dst register r250"},
		{"call arity", isa.Inst{Op: isa.OpCall, Callee: "cal"}, "got 0 args, want 2"},
		{"unknown callee", isa.Inst{Op: isa.OpCall, Callee: "nope"}, "unknown function"},
		{"access width", isa.Inst{Op: isa.OpLoad, Dst: 1, A: 2, Size: 3}, "access width 3"},
		{"syscall arity", isa.Inst{Op: isa.OpSyscall, Sys: isa.SysRead}, "syscall read"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			callee := &isa.Function{
				Name:    "cal",
				NParams: 2,
				Blocks:  []*isa.Block{{Name: "b0", Insts: []isa.Inst{{Op: isa.OpRet, A: 0}}}},
			}
			fn := &isa.Function{
				Name:   "f",
				Blocks: []*isa.Block{{Name: "b0", Insts: []isa.Inst{tt.bad, {Op: isa.OpRet, A: 0}}}},
			}
			prog := &isa.Program{Name: "bad", Entry: "f", Funcs: []*isa.Function{fn, callee}}
			if err := prog.Link(); err != nil {
				t.Fatalf("Link: %v", err)
			}
			_, err := mirstatic.Analyze(prog, nil)
			if err == nil {
				t.Fatal("Analyze accepted a malformed program")
			}
			if !strings.Contains(err.Error(), "malformed") || !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("Analyze error = %q, want \"malformed\" and %q", err, tt.wantSub)
			}
		})
	}
}

// TestVerifierWarnsOnPossiblyUndefinedRead checks the warning channel: the
// VM defines unwritten registers as zero, so the read is legal, Analyze
// succeeds, and the finding lands in Warnings.
func TestVerifierWarnsOnPossiblyUndefinedRead(t *testing.T) {
	fn := &isa.Function{
		Name:    "f",
		NParams: 1,
		Blocks: []*isa.Block{
			{Name: "b0", Insts: []isa.Inst{
				{Op: isa.OpMov, Dst: 1, A: 7}, // r7 never written
				{Op: isa.OpRet, A: 1},
			}},
		},
	}
	prog := &isa.Program{Name: "warny", Entry: "f", Funcs: []*isa.Function{fn}}
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.Warnings) == 0 {
		t.Fatal("want a read-before-write warning")
	}
	if !strings.Contains(a.Warnings[0].Msg, "r7") {
		t.Errorf("unexpected warning: %v", a.Warnings[0])
	}
	// Params are defined on entry: reading r0 must not warn.
	for _, w := range a.Warnings {
		if strings.Contains(w.Msg, "r0 ") {
			t.Errorf("param read warned: %v", w)
		}
	}
}

// TestFoldMirrorsVMArithmetic spot-checks the edge semantics the folder
// must share with the VM: wrapping multiply, shift >= 64, and division by
// a known zero staying unfolded.
func TestFoldMirrorsVMArithmetic(t *testing.T) {
	b := asm.NewBuilder("arith")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	m := b.Function("main", 0)
	big := m.Const(-1) // 0xffff_ffff_ffff_ffff
	wrap := m.MulI(big, 2)
	// (2^64-1)*2 wraps to 2^64-2, nonzero: the guard folds to taken.
	m.If(m.NeI(wrap, 0), func() {
		m.Call("ep")
	})
	shifted := m.BinI(isa.Shl, m.Const(1), 64) // shift >= 64 yields 0
	m.If(shifted, func() {
		m.Call("ep") // dead: guard is a constant zero
	})
	m.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Summary.FoldedBranches != 2 {
		t.Errorf("want both guards folded, got %v", a.Summary)
	}
	if a.EpUnreachable("ep") {
		t.Error("first guard folds to taken; ep must stay reachable")
	}

	// Division by a known zero faults at runtime; the folder must not
	// pretend to know the result.
	b2 := asm.NewBuilder("div0")
	m2 := b2.Function("main", 0)
	q := m2.BinI(isa.Div, m2.Const(4), 0)
	m2.If(q, func() {
		m2.Exit(1)
	})
	m2.Exit(0)
	b2.Entry("main")
	a2, err := mirstatic.Analyze(b2.MustBuild(), nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a2.Summary.FoldedBranches != 0 {
		t.Errorf("div-by-zero guard folded: %v", a2.Summary)
	}
}

// TestSCCPBeatsStraightReachability: the guarded region's join must keep
// the constant it would lose under plain all-edges propagation — the
// sparse-conditional part of the analysis.
func TestSCCPBeatsStraightReachability(t *testing.T) {
	b := asm.NewBuilder("sccp")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	m := b.Function("main", 0)
	x := m.VarI(7)
	m.If(m.Const(0), func() {
		m.AssignI(x, 1) // dead write: must not reach the join
	})
	// x is still exactly 7 here; the second guard folds dead too.
	m.If(m.NeI(x, 7), func() {
		m.Call("ep")
	})
	m.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Summary.FoldedBranches != 2 {
		t.Errorf("want both guards folded (dead write ignored at join), got %v", a.Summary)
	}
	if !a.EpUnreachable("ep") {
		t.Error("ep guarded by x != 7 with x == 7 on every live path; want unreachable")
	}
}

// TestAbsintStrengthensFolding pins the one fold source: an even-stride
// loop leaves the parity guard open under a flat constant lattice, but the
// interval∧congruence ranges fold it, kill the guarded call, and prove ep
// statically unreachable — whether the caller passes the ranges or Analyze
// computes them itself.
func TestAbsintStrengthensFolding(t *testing.T) {
	b := asm.NewBuilder("evenstride")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	m := b.Function("main", 0)
	n := m.Const(100)
	i := m.VarI(0)
	m.While(func() isa.Reg { return m.Cmp(isa.Lt, i, n) }, func() {
		m.Assign(i, m.AddI(i, 2))
	})
	m.If(m.NeI(m.AndI(i, 1), 0), func() { // i is even: provably false
		m.Call("ep")
	})
	m.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	a, err := mirstatic.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !a.EpUnreachable("ep") {
		t.Error("ep guarded by a provably-false parity check; want unreachable")
	}
	if a.Summary.DeadBlocks == 0 {
		t.Errorf("guarded call block not dead: %v", a.Summary)
	}
	given, err := mirstatic.Analyze(prog, absint.Analyze(prog))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if given.Summary != a.Summary {
		t.Errorf("passed ranges give %v, computed ranges give %v", given.Summary, a.Summary)
	}
	folded := false
	for blk := range prog.Func("main").Blocks {
		if taken, ok := a.BranchTaken("main", blk); ok {
			folded = true
			if a.DeadBlock("main", taken) {
				t.Errorf("folded branch at main:%d takes dead block %d", blk, taken)
			}
		}
	}
	if !folded {
		t.Error("no folded branch reported in main")
	}
}
