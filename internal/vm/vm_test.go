package vm_test

import (
	"bytes"
	"sync"
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/isa"
	"octopocs/internal/vm"
)

// run builds a single-function program with the builder and executes it.
func run(t *testing.T, input []byte, body func(f *asm.Fn)) *vm.Outcome {
	t.Helper()
	return runCfg(t, vm.Config{Input: input}, body)
}

func runCfg(t *testing.T, cfg vm.Config, body func(f *asm.Fn)) *vm.Outcome {
	t.Helper()
	b := asm.NewBuilder("test")
	f := b.Function("main", 0)
	body(f)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build() = %v", err)
	}
	return vm.New(prog, cfg).Run()
}

func wantExit(t *testing.T, out *vm.Outcome, code uint64) {
	t.Helper()
	if out.Status != vm.StatusExit || out.ExitCode != code {
		t.Fatalf("outcome = %v, want exit(%d)", out, code)
	}
}

func wantCrash(t *testing.T, out *vm.Outcome, kind vm.CrashKind) {
	t.Helper()
	if out.Status != vm.StatusCrash {
		t.Fatalf("outcome = %v, want crash %v", out, kind)
	}
	if out.Crash.Kind != kind {
		t.Fatalf("crash kind = %v, want %v", out.Crash.Kind, kind)
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		op   isa.BinOp
		a, b int64
		want uint64
	}{
		{"add", isa.Add, 7, 5, 12},
		{"add wraps", isa.Add, -1, 2, 1},
		{"sub", isa.Sub, 7, 5, 2},
		{"sub wraps", isa.Sub, 0, 1, ^uint64(0)},
		{"mul", isa.Mul, 6, 7, 42},
		{"div", isa.Div, 42, 5, 8},
		{"mod", isa.Mod, 42, 5, 2},
		{"and", isa.And, 0xF0, 0x3C, 0x30},
		{"or", isa.Or, 0xF0, 0x0F, 0xFF},
		{"xor", isa.Xor, 0xFF, 0x0F, 0xF0},
		{"shl", isa.Shl, 1, 12, 4096},
		{"shl 64+ is zero", isa.Shl, 1, 64, 0},
		{"shr", isa.Shr, 4096, 12, 1},
		{"shr 64+ is zero", isa.Shr, 4096, 200, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := run(t, nil, func(f *asm.Fn) {
				v := f.Bin(tt.op, f.Const(tt.a), f.Const(tt.b))
				f.Ret(v)
			})
			wantExit(t, out, tt.want)
		})
	}
}

func TestComparisons(t *testing.T) {
	tests := []struct {
		name string
		op   isa.CmpOp
		a, b int64
		want uint64
	}{
		{"eq true", isa.Eq, 3, 3, 1},
		{"eq false", isa.Eq, 3, 4, 0},
		{"ne", isa.Ne, 3, 4, 1},
		{"lt unsigned", isa.Lt, 3, 4, 1},
		{"lt unsigned negative is huge", isa.Lt, -1, 4, 0},
		{"le", isa.Le, 4, 4, 1},
		{"gt", isa.Gt, 5, 4, 1},
		{"ge", isa.Ge, 4, 5, 0},
		{"slt negative", isa.SLt, -1, 4, 1},
		{"sle", isa.SLe, -5, -5, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := run(t, nil, func(f *asm.Fn) {
				v := f.Cmp(tt.op, f.Const(tt.a), f.Const(tt.b))
				f.Ret(v)
			})
			wantExit(t, out, tt.want)
		})
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	for _, size := range []uint8{1, 2, 4, 8} {
		out := run(t, nil, func(f *asm.Fn) {
			buf := f.Sys(isa.SysAlloc, f.Const(16))
			f.Store(size, buf, 4, f.Const(0x1122334455667788))
			f.Ret(f.Load(size, buf, 4))
		})
		var mask uint64 = ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * uint(size))) - 1
		}
		wantExit(t, out, 0x1122334455667788&mask)
	}
}

func TestCrashKinds(t *testing.T) {
	t.Run("null deref", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			f.Ret(f.Load(8, f.Const(0), 16))
		})
		wantCrash(t, out, vm.CrashNull)
	})
	t.Run("out of bounds", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			f.Store(8, buf, 8, f.Const(1)) // one past the end
			f.RetI(0)
		})
		wantCrash(t, out, vm.CrashOOB)
	})
	t.Run("straddling the end", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			f.Ret(f.Load(8, buf, 4)) // 4..12 straddles
		})
		wantCrash(t, out, vm.CrashOOB)
	})
	t.Run("use after free", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			f.Sys(isa.SysFree, buf)
			f.Ret(f.Load(1, buf, 0))
		})
		wantCrash(t, out, vm.CrashUAF)
	})
	t.Run("double free", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			f.Sys(isa.SysFree, buf)
			f.Sys(isa.SysFree, buf)
			f.RetI(0)
		})
		wantCrash(t, out, vm.CrashUAF)
	})
	t.Run("free of non-base", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			f.Sys(isa.SysFree, f.AddI(buf, 1))
			f.RetI(0)
		})
		wantCrash(t, out, vm.CrashOOB)
	})
	t.Run("write to mapping", func(t *testing.T) {
		out := run(t, []byte{1, 2, 3, 4}, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			base := f.Sys(isa.SysMMap, fd)
			f.Store(1, base, 0, f.Const(9))
			f.RetI(0)
		})
		wantCrash(t, out, vm.CrashROWrite)
	})
	t.Run("div by zero", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			f.Ret(f.Bin(isa.Div, f.Const(1), f.Const(0)))
		})
		wantCrash(t, out, vm.CrashDiv)
	})
	t.Run("mod by zero imm", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			f.Ret(f.BinI(isa.Mod, f.Const(1), 0))
		})
		wantCrash(t, out, vm.CrashDiv)
	})
	t.Run("trap", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			f.Trap(42)
		})
		wantCrash(t, out, vm.CrashTrap)
		if out.Crash.Code != 42 {
			t.Errorf("trap code = %d, want 42", out.Crash.Code)
		}
	})
	t.Run("guard gap between regions", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			a := f.Sys(isa.SysAlloc, f.Const(8))
			f.Sys(isa.SysAlloc, f.Const(8))
			f.Store(1, a, 8, f.Const(1)) // lands in the gap, not region 2
			f.RetI(0)
		})
		wantCrash(t, out, vm.CrashOOB)
	})
}

func TestIndirectCall(t *testing.T) {
	build := func(idx int64, table ...string) (*isa.Program, error) {
		b := asm.NewBuilder("t")
		add3 := b.Function("add3", 1)
		add3.Ret(add3.AddI(add3.Param(0), 3))
		f := b.Function("main", 0)
		f.Ret(f.CallInd(f.Const(idx), f.Const(10)))
		b.Entry("main")
		b.FuncTable(table...)
		return b.Build()
	}

	t.Run("dispatches", func(t *testing.T) {
		prog, err := build(1, "add3", "add3")
		if err != nil {
			t.Fatal(err)
		}
		wantExit(t, vm.New(prog, vm.Config{}).Run(), 13)
	})
	t.Run("out of range index crashes", func(t *testing.T) {
		prog, err := build(5, "add3")
		if err != nil {
			t.Fatal(err)
		}
		wantCrash(t, vm.New(prog, vm.Config{}).Run(), vm.CrashBadCall)
	})
	t.Run("empty slot crashes", func(t *testing.T) {
		prog, err := build(0, "", "add3")
		if err != nil {
			t.Fatal(err)
		}
		wantCrash(t, vm.New(prog, vm.Config{}).Run(), vm.CrashBadCall)
	})
}

func TestFileSyscalls(t *testing.T) {
	input := []byte("hello world")

	t.Run("read and tell", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			n := f.Sys(isa.SysRead, fd, buf, f.Const(5))
			pos := f.Sys(isa.SysTell, fd)
			// return n*256 + pos
			f.Ret(f.Add(f.MulI(n, 256), pos))
		})
		wantExit(t, out, 5*256+5)
	})

	t.Run("read clamps at EOF", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			buf := f.Sys(isa.SysAlloc, f.Const(64))
			f.Sys(isa.SysSeek, fd, f.Const(8))
			f.Ret(f.Sys(isa.SysRead, fd, buf, f.Const(100)))
		})
		wantExit(t, out, 3) // "rld"
	})

	t.Run("seek clamps", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			f.Ret(f.Sys(isa.SysSeek, fd, f.Const(10_000)))
		})
		wantExit(t, out, uint64(len(input)))
	})

	t.Run("size", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			f.Ret(f.Sys(isa.SysSize, fd))
		})
		wantExit(t, out, uint64(len(input)))
	})

	t.Run("independent positions per open", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd1 := f.Sys(isa.SysOpen)
			fd2 := f.Sys(isa.SysOpen)
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			f.Sys(isa.SysRead, fd1, buf, f.Const(5))
			f.Ret(f.Sys(isa.SysTell, fd2))
		})
		wantExit(t, out, 0)
	})

	t.Run("mmap exposes content", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			base := f.Sys(isa.SysMMap, fd)
			f.Ret(f.Load(1, base, 6)) // 'w'
		})
		wantExit(t, out, 'w')
	})

	t.Run("bad fd read", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			n := f.Sys(isa.SysRead, f.Const(99), buf, f.Const(5))
			f.If(f.EqI(n, -1), func() { f.RetI(1) })
			f.RetI(0)
		})
		wantExit(t, out, 1)
	})

	t.Run("write collects output", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			buf := f.Sys(isa.SysAlloc, f.Const(8))
			f.Sys(isa.SysRead, fd, buf, f.Const(5))
			f.Sys(isa.SysWrite, buf, f.Const(5))
			f.Exit(0)
		})
		if !bytes.Equal(out.Output, []byte("hello")) {
			t.Errorf("output = %q, want %q", out.Output, "hello")
		}
	})

	t.Run("read into bad buffer crashes", func(t *testing.T) {
		out := run(t, input, func(f *asm.Fn) {
			fd := f.Sys(isa.SysOpen)
			f.Sys(isa.SysRead, fd, f.Const(0), f.Const(5))
			f.RetI(0)
		})
		wantCrash(t, out, vm.CrashNull)
	})
}

func TestHang(t *testing.T) {
	out := runCfg(t, vm.Config{MaxSteps: 1000}, func(f *asm.Fn) {
		f.Forever(func() {})
		f.RetI(0)
	})
	if out.Status != vm.StatusHang {
		t.Fatalf("outcome = %v, want hang", out)
	}
	if out.Steps != 1000 {
		t.Errorf("steps = %d, want 1000", out.Steps)
	}
}

func TestControlFlowAndCalls(t *testing.T) {
	t.Run("if else taken", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			f.IfElse(f.Const(1),
				func() { f.RetI(10) },
				func() { f.RetI(20) })
		})
		wantExit(t, out, 10)
	})
	t.Run("if else not taken", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			f.IfElse(f.Const(0),
				func() { f.RetI(10) },
				func() { f.RetI(20) })
		})
		wantExit(t, out, 20)
	})
	t.Run("while sums", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			i := f.VarI(0)
			sum := f.VarI(0)
			f.While(func() isa.Reg { return f.LtI(i, 10) }, func() {
				f.Assign(sum, f.Add(sum, i))
				f.Assign(i, f.AddI(i, 1))
			})
			f.Ret(sum)
		})
		wantExit(t, out, 45)
	})

	t.Run("nested calls and backtrace", func(t *testing.T) {
		b := asm.NewBuilder("t")
		inner := b.Function("inner", 1)
		inner.If(inner.GtI(inner.Param(0), 5), func() { inner.Trap(1) })
		inner.Ret(inner.Param(0))
		mid := b.Function("mid", 1)
		mid.Ret(mid.Call("inner", mid.AddI(mid.Param(0), 3)))
		f := b.Function("main", 0)
		f.Ret(f.Call("mid", f.Const(4)))
		b.Entry("main")
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out := vm.New(prog, vm.Config{}).Run()
		wantCrash(t, out, vm.CrashTrap)
		want := []string{"main", "mid", "inner"}
		got := out.Crash.Funcs()
		if len(got) != len(want) {
			t.Fatalf("backtrace = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("backtrace = %v, want %v", got, want)
			}
		}
		if out.Crash.Backtrace[1].CallSite.Func != "main" {
			t.Errorf("mid's call site = %v, want in main", out.Crash.Backtrace[1].CallSite)
		}
	})

	t.Run("return value propagates", func(t *testing.T) {
		b := asm.NewBuilder("t")
		double := b.Function("double", 1)
		double.Ret(double.MulI(double.Param(0), 2))
		f := b.Function("main", 0)
		x := f.Call("double", f.Const(21))
		f.Ret(x)
		b.Entry("main")
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		wantExit(t, vm.New(prog, vm.Config{}).Run(), 42)
	})
}

// TestFramesStartClean pins that an activation record recycled from a
// returned call, or from a machine whose run crashed mid-call, enters its
// function with every register beyond its arguments zero, also while
// machines on several goroutines recycle frames at once.
func TestFramesStartClean(t *testing.T) {
	build := func(trap bool) *isa.Program {
		b := asm.NewBuilder("t")
		dirty := b.Function("dirty", 1)
		v := dirty.MulI(dirty.AddI(dirty.MulI(dirty.Param(0), 3), 5), 7)
		if trap {
			dirty.Trap(1)
		}
		dirty.Ret(v)
		clean := b.Function("clean", 1)
		clean.Ret(clean.Param(0))
		f := b.Function("main", 0)
		d := f.Call("dirty", f.Const(2))
		f.Ret(f.Add(d, f.Call("clean", f.Const(1))))
		b.Entry("main")
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	trapping, returning := build(true), build(false)
	hooks := &vm.Hooks{OnBlockRegs: func(fn string, block int, regs []uint64) {
		if fn != "clean" || block != 0 {
			return
		}
		for i, r := range regs[1:] {
			if r != 0 {
				t.Errorf("clean entered with r%d = %d, want 0", i+1, r)
			}
		}
	}}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if out := vm.New(trapping, vm.Config{}).Run(); out.Status != vm.StatusCrash {
					t.Errorf("trapping run = %v, want a crash", out)
				}
				if out := vm.New(returning, vm.Config{Hooks: hooks}).Run(); out.Status != vm.StatusExit || out.ExitCode != 78 {
					t.Errorf("returning run = %v, want exit(78)", out)
				}
			}
		}()
	}
	wg.Wait()
}

func TestHooks(t *testing.T) {
	input := []byte{0xAA, 0xBB, 0xCC}
	var (
		insts, loads, stores, calls, rets, reads, mmaps, blocks int
		readOff                                                 int64
	)
	hooks := &vm.Hooks{
		OnInst:  func(isa.Loc, uint64, *isa.Inst) { insts++ },
		OnBlock: func(*isa.Function, int) { blocks++ },
		OnLoad:  func(isa.Loc, uint64, *isa.Inst, uint64, uint64) { loads++ },
		OnStore: func(isa.Loc, uint64, *isa.Inst, uint64, uint64) { stores++ },
		OnCall: func(site isa.Loc, callee string, args []uint64, callerID, calleeID uint64, dst isa.Reg) {
			calls++
		},
		OnRet: func(fn string, val uint64, callerID, calleeID uint64, dst isa.Reg) { rets++ },
		OnRead: func(fd uint64, off int64, buf uint64, n int) {
			reads++
			readOff = off
		},
		OnMMap: func(fd uint64, base uint64, size int) { mmaps++ },
	}
	out := runCfg(t, vm.Config{Input: input, Hooks: hooks}, func(f *asm.Fn) {
		fd := f.Sys(isa.SysOpen)
		buf := f.Sys(isa.SysAlloc, f.Const(8))
		f.Sys(isa.SysSeek, fd, f.Const(1))
		f.Sys(isa.SysRead, fd, buf, f.Const(2))
		f.Sys(isa.SysMMap, fd)
		f.Store(1, buf, 4, f.Const(7))
		v := f.Load(1, buf, 0)
		f.Ret(v)
	})
	wantExit(t, out, 0xBB)
	if insts == 0 || int64(insts) != out.Steps {
		t.Errorf("OnInst fired %d times, steps = %d", insts, out.Steps)
	}
	if loads != 1 || stores != 1 {
		t.Errorf("loads=%d stores=%d, want 1 each", loads, stores)
	}
	if calls != 1 || rets != 1 { // entry call + final ret
		t.Errorf("calls=%d rets=%d, want 1 each", calls, rets)
	}
	if reads != 1 || readOff != 1 {
		t.Errorf("reads=%d off=%d, want 1 read at offset 1", reads, readOff)
	}
	if mmaps != 1 {
		t.Errorf("mmaps=%d, want 1", mmaps)
	}
	if blocks == 0 {
		t.Error("OnBlock never fired")
	}
}

func TestFilePosAccessor(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(3))
	f.Trap(0) // stop here so we can inspect
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{Input: []byte("abcdef")})
	m.Run()
	if got := m.FilePos(3); got != 3 {
		t.Errorf("FilePos(3) = %d, want 3", got)
	}
	if got := m.FilePos(99); got != -1 {
		t.Errorf("FilePos(99) = %d, want -1", got)
	}
}

func TestAllocZeroAndHuge(t *testing.T) {
	t.Run("zero alloc is valid unique address", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			a := f.Sys(isa.SysAlloc, f.Const(0))
			bb := f.Sys(isa.SysAlloc, f.Const(0))
			f.Ret(f.Cmp(isa.Ne, a, bb))
		})
		wantExit(t, out, 1)
	})
	t.Run("huge alloc returns null", func(t *testing.T) {
		out := run(t, nil, func(f *asm.Fn) {
			f.Ret(f.Sys(isa.SysAlloc, f.Const(1<<40)))
		})
		wantExit(t, out, 0)
	})
	t.Run("overflowed size wraps to huge and fails", func(t *testing.T) {
		// The classic CWE-190 pattern: width*height wraps, the C
		// allocator refuses or under-allocates.
		out := run(t, nil, func(f *asm.Fn) {
			n := f.Mul(f.Const(1<<33), f.Const(1<<33)) // wraps to 0 mod 2^64... use other values
			_ = n
			m := f.Mul(f.Const(1<<32), f.Const(1<<31)) // = 1<<63: too big
			f.Ret(f.Sys(isa.SysAlloc, m))
		})
		wantExit(t, out, 0)
	})
}

// TestAllocLoopCappedInTotal runs the guest loop `l: a = sys alloc(60 MB);
// if a != 0 goto l` and exits with the index of the first refused
// allocation: four fit under the 256 MB a run may reserve, the fifth gets
// 0. symex's TestSymbolicAllocLoopCapped runs the same loop.
func TestAllocLoopCappedInTotal(t *testing.T) {
	out := run(t, nil, func(f *asm.Fn) {
		n := f.VarI(0)
		f.Forever(func() {
			f.Assign(n, f.AddI(n, 1))
			a := f.Sys(isa.SysAlloc, f.Const(60_000_000))
			f.If(f.EqI(a, 0), func() { f.Sys(isa.SysExit, n) })
		})
	})
	wantExit(t, out, 5)
}

func TestOutcomeStrings(t *testing.T) {
	out := run(t, nil, func(f *asm.Fn) { f.Exit(3) })
	if got := out.String(); got == "" {
		t.Error("Outcome.String() empty")
	}
	out = run(t, nil, func(f *asm.Fn) { f.Trap(1) })
	if got := out.String(); got == "" {
		t.Error("crash Outcome.String() empty")
	}
	if !out.CrashedIn(map[string]bool{"main": true}) {
		t.Error("CrashedIn(main) = false, want true")
	}
	if out.CrashedIn(map[string]bool{"other": true}) {
		t.Error("CrashedIn(other) = true, want false")
	}
}
