package symex_test

import (
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/expr"
	"octopocs/internal/isa"
	"octopocs/internal/symex"
	"octopocs/internal/vm"
)

// TestSymbolicSyscallSurface drives every syscall through directed
// execution in one program: mmap, seek/tell/size, free, write, and both
// input channels, ending at ep with a solvable constraint.
func TestSymbolicSyscallSurface(t *testing.T) {
	b := asm.NewBuilder("sys")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	size := f.Sys(isa.SysSize, fd)
	f.If(f.EqI(size, 0), func() { f.Exit(1) })
	base := f.Sys(isa.SysMMap, fd)
	first := f.Load(1, base, 0)
	f.If(f.NeI(first, 'Q'), func() { f.Exit(1) })

	f.Sys(isa.SysSeek, fd, f.Const(2))
	pos := f.Sys(isa.SysTell, fd)
	f.If(f.NeI(pos, 2), func() { f.Exit(1) })

	scratch := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, scratch, f.Const(1))
	f.Sys(isa.SysWrite, scratch, f.Const(1))
	f.Sys(isa.SysFree, scratch)

	f.Call("ep")
	f.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 8}, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("kind = %v (%s), want reached", res.Kind, res.Why)
	}
	in := solveInput(t, res, 8)
	if in[0] != 'Q' {
		t.Errorf("in[0] = %q, want Q (mmap-derived constraint)", in[0])
	}
	// The solved input must concretely reach ep.
	entered := false
	hooks := &vm.Hooks{OnCall: func(_ isa.Loc, callee string, _ []uint64, _, _ uint64, _ isa.Reg) {
		entered = entered || callee == "ep"
	}}
	vm.New(prog, vm.Config{Input: in, Hooks: hooks}).Run()
	if !entered {
		t.Error("solved input did not reach ep concretely")
	}
}

// TestSymbolicArgChannel reaches ep through the argument-string channel:
// the guiding input lands on the same symbol space and the position
// indicator tracks the argument cursor.
func TestSymbolicArgChannel(t *testing.T) {
	b := asm.NewBuilder("argch")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	n := f.Sys(isa.SysArgLen)
	f.If(f.LtI(n, 3), func() { f.Exit(1) })
	buf := f.Sys(isa.SysAlloc, f.Const(4))
	f.Sys(isa.SysArgRead, buf, f.Const(2))
	f.If(f.NeI(f.Load(1, buf, 0), '-'), func() { f.Exit(1) })
	f.If(f.NeI(f.Load(1, buf, 1), 'X'), func() { f.Exit(1) })
	f.Call("ep")
	f.Exit(0)
	b.Entry("main")
	prog := b.MustBuild()

	var pos int64 = -1
	visitor := func(entry symex.EpEntry, st *symex.State) (symex.Decision, error) {
		pos = entry.FilePos
		st.AddConstraint(expr.Bin(expr.OpEq, expr.Sym(2), expr.Const('z')))
		return symex.Stop, nil
	}
	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 8}, visitor)
	if !res.Reached() {
		t.Fatalf("kind = %v (%s), want reached", res.Kind, res.Why)
	}
	if pos != 2 {
		t.Errorf("arg position indicator = %d, want 2", pos)
	}
	in := solveInput(t, res, 8)
	if in[0] != '-' || in[1] != 'X' || in[2] != 'z' {
		t.Errorf("solved prefix = %q, want -Xz", in[:3])
	}
}

// TestSymbolicAllocLoopCapped runs vm's TestAllocLoopCappedInTotal loop
// symbolically: ep is called only if the fifth 60 MB allocation is the
// first one refused, as on the concrete machine.
func TestSymbolicAllocLoopCapped(t *testing.T) {
	b := asm.NewBuilder("allocloop")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	n := f.VarI(0)
	f.Forever(func() {
		f.Assign(n, f.AddI(n, 1))
		a := f.Sys(isa.SysAlloc, f.Const(60_000_000))
		f.If(f.EqI(a, 0), func() {
			f.If(f.EqI(n, 5), func() { f.Call("ep") })
			f.Sys(isa.SysExit, n)
		})
	})
	b.Entry("main")
	prog := b.MustBuild()

	res := runDirected(t, prog, symex.Config{Target: "ep", InputSize: 1}, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("kind = %v (%s), want reached", res.Kind, res.Why)
	}
}
