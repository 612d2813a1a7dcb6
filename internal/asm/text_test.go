package asm_test

import (
	"errors"
	"strings"
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/isa"
	"octopocs/internal/mirstatic"
	"octopocs/internal/vm"
)

func TestParseNegativeOffsets(t *testing.T) {
	src := `
program neg
entry main

func main/0 {
entry:
  r1 = sys alloc(r0)
  r0 = const 16
  r1 = sys alloc(r0)
  r2 = add r1, 8
  r3 = const 77
  store1 r2+-4, r3
  r4 = load1 r2+-4
  ret r4
}
`
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := vm.New(prog, vm.Config{}).Run()
	if out.Status != vm.StatusExit || out.ExitCode != 77 {
		t.Fatalf("outcome = %v, want exit(77)", out)
	}
	// Negative offsets must survive a format/parse cycle.
	again, err := asm.Parse(asm.Format(prog))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	out2 := vm.New(again, vm.Config{}).Run()
	if out2.ExitCode != 77 {
		t.Fatalf("round-tripped outcome = %v", out2)
	}
}

func TestParseArgChannelSyscalls(t *testing.T) {
	src := `
program args
entry main

func main/0 {
entry:
  r0 = const 4
  r1 = sys alloc(r0)
  r2 = sys argread(r1, r0)
  r3 = sys arglen()
  r4 = add r2, r3
  ret r4
}
`
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := vm.New(prog, vm.Config{Input: []byte{1, 2}}).Run()
	// argread returns 2 (clamped), arglen returns 2.
	if out.ExitCode != 4 {
		t.Fatalf("outcome = %v, want exit(4)", out)
	}
}

func TestFormatIncludesFunctable(t *testing.T) {
	b := asm.NewBuilder("ft")
	h := b.Function("h", 0)
	h.RetI(0)
	f := b.Function("main", 0)
	f.CallInd(f.Const(0))
	f.Exit(0)
	b.Entry("main")
	b.FuncTable("h", "")
	text := asm.Format(b.MustBuild())
	if !strings.Contains(text, "functable h, -") {
		t.Errorf("functable line missing:\n%s", text)
	}
}

// fuzzLiveCap bounds the bytes a fuzzed program may hold allocated before
// its next SysAlloc: the VM lets one run reserve up to 256 MB, too much to
// hold in every parallel fuzz worker. The run stops with errFuzzLiveCap,
// which is not a failure.
const fuzzLiveCap = 64 << 20

var errFuzzLiveCap = errors.New("fuzzed program exceeded the live-allocation cap")

// FuzzParse checks the assembler never panics on arbitrary text, that
// anything it accepts formats and re-parses to the same rendering, and that
// isa's Check on an accepted program is the whole contract of the later
// stages: mirstatic.Analyze accepts it and the VM runs it without
// panicking.
func FuzzParse(f *testing.F) {
	f.Add("program p\nentry main\nfunc main/0 {\ne:\n  ret r0\n}\n")
	f.Add("program q\nfunc f/2 {\nblk:\n  r2 = add r0, r1\n  ret r2\n}\nentry f\n")
	f.Add("garbage")
	f.Add("program p\nfunctable -, a\n")
	f.Add("program r\nentry main\nfunc main/0 {\ne:\n  r1 = const 16\n  r2 = sys alloc(r1)\n  r3 = load8 r2+24\n  ret r3\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := asm.Parse(src)
		if err != nil {
			return
		}
		text := asm.Format(prog)
		again, err := asm.Parse(text)
		if err != nil {
			t.Fatalf("accepted program failed to re-parse: %v\n%s", err, text)
		}
		if asm.Format(again) != text {
			t.Fatal("format not stable")
		}
		if _, err := mirstatic.Analyze(prog, nil); err != nil {
			t.Fatalf("Analyze rejected an accepted program: %v\n%s", err, text)
		}
		runCapped(prog)
	})
}

// runCapped runs prog on the VM over a short input, stopping it once it
// holds more than fuzzLiveCap bytes at an allocation. Any other panic
// propagates.
func runCapped(prog *isa.Program) {
	var m *vm.Machine
	hooks := &vm.Hooks{OnInst: func(_ isa.Loc, _ uint64, in *isa.Inst) {
		if in.Op != isa.OpSyscall || in.Sys != isa.SysAlloc {
			return
		}
		live := 0
		for _, r := range m.Memory().Regions() {
			live += len(r.Data)
		}
		if live > fuzzLiveCap {
			panic(errFuzzLiveCap)
		}
	}}
	defer func() {
		if r := recover(); r != nil && r != errFuzzLiveCap {
			panic(r)
		}
	}()
	m = vm.New(prog, vm.Config{Input: []byte("\x89MIR\x00\x01\xff\x10"), MaxSteps: 5000, Hooks: hooks})
	m.Run()
}
