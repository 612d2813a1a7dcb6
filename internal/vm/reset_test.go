package vm_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/isa"
	"octopocs/internal/vm"
)

// scriptProgram interprets its input as a script of two-byte commands
// (op, arg) over eight pointer slots. op&7 selects the command and
// op>>3&7 the slot:
//
//	0 alloc arg*8+1 bytes into the slot   4 mmap the input into the slot
//	1 store op at slot+arg&15             5 call spin(arg): arg 0xff hangs
//	2 free the slot                       6 load 8 bytes at slot+arg&7
//	3 write arg&15 bytes from the slot    7 exit(arg)
//
// The input and the slot table live in the first two regions, so a stale
// byte, pointer or flag left by an earlier run changes what a script does.
// main returns the input's descriptor plus every spin and load result.
func scriptProgram(t testing.TB) *isa.Program {
	b := asm.NewBuilder("script")
	spin := b.Function("spin", 1)
	spin.If(spin.EqI(spin.Param(0), 0xff), func() {
		spin.Forever(func() {})
	})
	k := spin.Var(spin.Param(0))
	spin.While(func() isa.Reg { return spin.NeI(k, 0) }, func() {
		spin.Assign(k, spin.SubI(k, 1))
	})
	spin.Ret(spin.Param(0))

	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	n := f.Sys(isa.SysSize, fd)
	buf := f.Sys(isa.SysAlloc, f.AddI(n, 1))
	f.Sys(isa.SysRead, fd, buf, n)
	slots := f.Sys(isa.SysAlloc, f.Const(64))
	acc := f.Var(fd)
	i := f.VarI(0)
	f.While(func() isa.Reg { return f.Cmp(isa.Lt, i, n) }, func() {
		at := f.Add(buf, i)
		op := f.Load(1, at, 0)
		arg := f.Load(1, at, 1)
		f.Assign(i, f.AddI(i, 2))
		kind := f.AndI(op, 7)
		slot := f.Add(slots, f.MulI(f.AndI(f.ShrI(op, 3), 7), 8))
		f.If(f.EqI(kind, 0), func() {
			f.Store(8, slot, 0, f.Sys(isa.SysAlloc, f.AddI(f.MulI(arg, 8), 1)))
		})
		f.If(f.EqI(kind, 1), func() {
			f.Store(1, f.Add(f.Load(8, slot, 0), f.AndI(arg, 15)), 0, op)
		})
		f.If(f.EqI(kind, 2), func() {
			f.Sys(isa.SysFree, f.Load(8, slot, 0))
		})
		f.If(f.EqI(kind, 3), func() {
			f.Sys(isa.SysWrite, f.Load(8, slot, 0), f.AndI(arg, 15))
		})
		f.If(f.EqI(kind, 4), func() {
			f.Store(8, slot, 0, f.Sys(isa.SysMMap, fd))
		})
		f.If(f.EqI(kind, 5), func() {
			f.Assign(acc, f.Add(acc, f.Call("spin", arg)))
		})
		f.If(f.EqI(kind, 6), func() {
			f.Assign(acc, f.Add(acc, f.Load(8, f.Add(f.Load(8, slot, 0), f.AndI(arg, 7)), 0)))
		})
		f.If(f.EqI(kind, 7), func() {
			f.Sys(isa.SysExit, arg)
		})
	})
	f.Ret(acc)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runRecord is everything a run leaves observable.
type runRecord struct {
	outcome string
	output  []byte
	crash   string
	regions string
	blocks  []string
}

func record(m *vm.Machine, blocks *[]string) runRecord {
	*blocks = (*blocks)[:0]
	out := m.Run()
	r := runRecord{
		outcome: fmt.Sprintf("%v exit=%d steps=%d", out.Status, out.ExitCode, out.Steps),
		output:  slices.Clone(out.Output),
		blocks:  slices.Clone(*blocks),
	}
	if c := out.Crash; c != nil {
		r.crash = fmt.Sprintf("%v at %v addr=%#x code=%d bt=%v", c.Kind, c.Loc, c.Addr, c.Code, c.Backtrace)
	}
	var sb bytes.Buffer
	for _, g := range m.Memory().Regions() {
		fmt.Fprintf(&sb, "%#x+%d freed=%v ro=%v % x\n", g.Base, len(g.Data), g.Freed, g.ReadOnly, g.Data)
	}
	r.regions = sb.String()
	return r
}

// FuzzMachineReset is the differential oracle for Machine.Reset: after a
// run on an arbitrary first input, a reset machine must run a second input
// exactly as a fresh machine does, in status, exit code, steps, output,
// crash, final address space (bases, lengths, bytes and flags of every
// region) and the sequence of blocks entered.
func FuzzMachineReset(f *testing.F) {
	// The first run has more and larger regions than the second, and
	// leaves bytes in a buffer the second reads back out.
	f.Add([]byte{0x00, 0x40, 0x08, 0x40, 0x10, 0x40, 0x01, 0x03, 0x09, 0x07},
		[]byte{0x00, 0x04, 0x03, 0x0f})
	// A freed region is reused: the second run must not fault on it. The
	// first run's output must not leak into the second's.
	f.Add([]byte{0x00, 0x04, 0x03, 0x02, 0x02, 0x00},
		[]byte{0x00, 0x04, 0x01, 0x03, 0x03, 0x0f})
	// A read-only file mapping is reused as a heap buffer.
	f.Add(bytes.Repeat([]byte{0x04, 0x00}, 8),
		[]byte{0x00, 0x01, 0x01, 0x02, 0x03, 0x08})
	// The first run hangs inside a call; the second calls and exits.
	f.Add([]byte{0x05, 0xff}, []byte{0x05, 0x03, 0x07, 0x2a})
	// The second run faults on a use after free of its own.
	f.Add([]byte{0x00, 0x02}, []byte{0x00, 0x02, 0x02, 0x00, 0x06, 0x00})
	prog := scriptProgram(f)
	f.Fuzz(func(t *testing.T, first, second []byte) {
		if len(first) > 64 || len(second) > 64 {
			t.Skip()
		}
		var blocks []string
		hooks := &vm.Hooks{OnBlock: func(fn *isa.Function, b int) {
			blocks = append(blocks, fmt.Sprintf("%s:%d", fn.Name, b))
		}}
		cfg := vm.Config{MaxSteps: 20_000, Hooks: hooks}

		cfg.Input = first
		m := vm.New(prog, cfg)
		record(m, &blocks)
		m.Reset(second)
		got := record(m, &blocks)

		cfg.Input = second
		want := record(vm.New(prog, cfg), &blocks)

		if got.outcome != want.outcome || got.crash != want.crash {
			t.Fatalf("reset run %s %s, fresh run %s %s", got.outcome, got.crash, want.outcome, want.crash)
		}
		if !bytes.Equal(got.output, want.output) {
			t.Fatalf("reset run output % x, fresh % x", got.output, want.output)
		}
		if got.regions != want.regions {
			t.Fatalf("reset run regions:\n%s\nfresh:\n%s", got.regions, want.regions)
		}
		if !slices.Equal(got.blocks, want.blocks) {
			t.Fatalf("reset run entered %v, fresh %v", got.blocks, want.blocks)
		}
	})
}
