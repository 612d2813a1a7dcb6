package isa

import (
	"errors"
	"strings"
	"testing"
)

// retProg builds a minimal valid program: entry main { ret r0 }.
func retProg() *Program {
	return &Program{
		Name:  "t",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main",
			Blocks: []*Block{{
				Name:  "entry",
				Insts: []Inst{{Op: OpRet, A: 0}},
			}},
		}},
	}
}

func TestValidateMinimal(t *testing.T) {
	p := retProg()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Program)
		wantSub string
	}{
		{
			name:    "missing entry",
			mutate:  func(p *Program) { p.Entry = "nope" },
			wantSub: "entry",
		},
		{
			name:    "empty entry name",
			mutate:  func(p *Program) { p.Entry = "" },
			wantSub: "entry",
		},
		{
			name: "duplicate function",
			mutate: func(p *Program) {
				p.Funcs = append(p.Funcs, p.Funcs[0])
			},
			wantSub: "duplicate function",
		},
		{
			name: "duplicate block",
			mutate: func(p *Program) {
				f := p.Funcs[0]
				f.Blocks = append(f.Blocks, &Block{Name: "entry", Insts: []Inst{{Op: OpRet}}})
			},
			wantSub: "duplicate block",
		},
		{
			name: "empty block",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks = append(p.Funcs[0].Blocks, &Block{Name: "b2"})
			},
			wantSub: "empty",
		},
		{
			name: "no terminator",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{{Op: OpConst, Dst: 1, Imm: 3}}
			},
			wantSub: "terminator",
		},
		{
			name: "terminator mid-block",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpRet, A: 0},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "middle",
		},
		{
			name: "jmp to unknown block",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{{Op: OpJmp, Then: "nowhere"}}
			},
			wantSub: "unknown block",
		},
		{
			name: "br to unknown block",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{{Op: OpBr, A: 0, Then: "entry", Else: "nowhere"}}
			},
			wantSub: "unknown block",
		},
		{
			name: "call unknown function",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpCall, Callee: "ghost"},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "unknown function",
		},
		{
			name: "call arity mismatch",
			mutate: func(p *Program) {
				p.Funcs = append(p.Funcs, &Function{
					Name: "two", NParams: 2,
					Blocks: []*Block{{Name: "e", Insts: []Inst{{Op: OpRet, A: 0}}}},
				})
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpCall, Callee: "two", Args: []Reg{1}},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "args",
		},
		{
			name: "indirect call without table",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpCallInd, A: 1},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "function table",
		},
		{
			name: "functable names unknown function",
			mutate: func(p *Program) {
				p.FuncTable = []string{"ghost"}
			},
			wantSub: "functable",
		},
		{
			name: "bad load width",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpLoad, Dst: 1, A: 0, Size: 3},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "width",
		},
		{
			name: "bad binop",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpBin, Dst: 1, Bin: 99},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "binary operator",
		},
		{
			name: "bad cmpop",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpCmpImm, Dst: 1, Cmp: 99},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "comparison operator",
		},
		{
			name: "syscall arity",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpSyscall, Sys: SysRead, Args: []Reg{1}},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "syscall read",
		},
		{
			name: "unknown syscall",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpSyscall, Sys: 99},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "unknown syscall",
		},
		{
			name: "negative param count",
			mutate: func(p *Program) {
				p.Funcs[0].NParams = -1
			},
			wantSub: "parameter count",
		},
		{
			name: "dst register out of range",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpConst, Dst: 250, Imm: 1},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "dst register r250",
		},
		{
			name: "lhs register out of range",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpBin, Dst: 1, A: NumRegs, B: 0, Bin: Add},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "operand register r224",
		},
		{
			name: "rhs register out of range",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpStore, A: 0, B: 255, Size: 8},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "operand register r255",
		},
		{
			name: "ret register out of range",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{{Op: OpRet, A: 230}}
			},
			wantSub: "operand register r230",
		},
		{
			name: "syscall arg register out of range",
			mutate: func(p *Program) {
				p.Funcs[0].Blocks[0].Insts = []Inst{
					{Op: OpSyscall, Sys: SysAlloc, Dst: 1, Args: []Reg{240}},
					{Op: OpRet, A: 0},
				}
			},
			wantSub: "argument register r240",
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := retProg()
			tt.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("Validate() = %q, want substring %q", err, tt.wantSub)
			}
		})
	}
}

// TestCheckReadsOnly checks that Check neither links a program nor trusts
// a linked program's block indices: it reads what Link left.
func TestCheckReadsOnly(t *testing.T) {
	p := retProg()
	if err := p.Check(); !errors.Is(err, ErrNoEntry) {
		t.Errorf("Check() on an unlinked program = %v, want ErrNoEntry", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Funcs[0].Blocks[0].Insts = []Inst{{Op: OpJmp, Then: "entry", ThenIdx: 3}}
	if err := p.Check(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Check() = %v, want an out-of-range jmp target", err)
	}
}

func TestValidateAllowsEmptyFuncTableSlot(t *testing.T) {
	p := retProg()
	p.FuncTable = []string{"", "main"}
	p.Funcs[0].Blocks[0].Insts = []Inst{
		{Op: OpCallInd, Dst: 1, A: 0},
		{Op: OpRet, A: 0},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil (empty slots are legal)", err)
	}
}

func TestValidateErrorSentinels(t *testing.T) {
	p := retProg()
	p.Entry = "missing"
	if err := p.Validate(); !errors.Is(err, ErrNoEntry) {
		t.Errorf("Validate() = %v, want ErrNoEntry", err)
	}

	p = retProg()
	p.Funcs[0].Blocks = append(p.Funcs[0].Blocks, &Block{Name: "b"})
	if err := p.Validate(); !errors.Is(err, ErrEmptyBlock) {
		t.Errorf("Validate() = %v, want ErrEmptyBlock", err)
	}

	p = retProg()
	p.Funcs[0].Blocks[0].Insts = []Inst{{Op: OpConst, Dst: 1}}
	if err := p.Validate(); !errors.Is(err, ErrNoTerminate) {
		t.Errorf("Validate() = %v, want ErrNoTerminate", err)
	}
}

func TestIsTerminator(t *testing.T) {
	tests := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: OpJmp}, true},
		{Inst{Op: OpBr}, true},
		{Inst{Op: OpRet}, true},
		{Inst{Op: OpTrap}, true},
		{Inst{Op: OpSyscall, Sys: SysExit}, true},
		{Inst{Op: OpSyscall, Sys: SysRead}, false},
		{Inst{Op: OpConst}, false},
		{Inst{Op: OpCall}, false},
		{Inst{Op: OpCallInd}, false},
		{Inst{Op: OpStore}, false},
	}
	for _, tt := range tests {
		if got := tt.in.IsTerminator(); got != tt.want {
			t.Errorf("IsTerminator(%s) = %v, want %v", tt.in.Op, got, tt.want)
		}
	}
}

func TestProgramLookups(t *testing.T) {
	p := retProg()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Func("main") == nil {
		t.Error("Func(main) = nil, want function")
	}
	if p.Func("ghost") != nil {
		t.Error("Func(ghost) != nil, want nil")
	}
	f := p.Func("main")
	if got := f.BlockIndex("entry"); got != 0 {
		t.Errorf("BlockIndex(entry) = %d, want 0", got)
	}
	if got := f.BlockIndex("nope"); got != -1 {
		t.Errorf("BlockIndex(nope) = %d, want -1", got)
	}
	if got := p.NumInsts(); got != 1 {
		t.Errorf("NumInsts() = %d, want 1", got)
	}
	names := p.FuncNames()
	if len(names) != 1 || names[0] != "main" {
		t.Errorf("FuncNames() = %v, want [main]", names)
	}
}

func TestLocString(t *testing.T) {
	l := Loc{Func: "f", Block: 2, Inst: 7}
	if got, want := l.String(), "f:2:7"; got != want {
		t.Errorf("Loc.String() = %q, want %q", got, want)
	}
}

func TestInstString(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpConst, Dst: 1, Imm: -5}, "r1 = const -5"},
		{Inst{Op: OpMov, Dst: 2, A: 1}, "r2 = mov r1"},
		{Inst{Op: OpBin, Dst: 3, Bin: Add, A: 1, B: 2}, "r3 = add r1, r2"},
		{Inst{Op: OpBinImm, Dst: 3, Bin: Shl, A: 1, Imm: 8}, "r3 = shl r1, 8"},
		{Inst{Op: OpCmp, Dst: 3, Cmp: SLt, A: 1, B: 2}, "r3 = slt r1, r2"},
		{Inst{Op: OpCmpImm, Dst: 3, Cmp: Eq, A: 1, Imm: 10}, "r3 = eq r1, 10"},
		{Inst{Op: OpLoad, Dst: 4, Size: 2, A: 5, Imm: 6}, "r4 = load2 r5+6"},
		{Inst{Op: OpStore, Size: 8, A: 5, Imm: 0, B: 4}, "store8 r5+0, r4"},
		{Inst{Op: OpJmp, Then: "exit"}, "jmp exit"},
		{Inst{Op: OpBr, A: 1, Then: "a", Else: "b"}, "br r1, a, b"},
		{Inst{Op: OpCall, Dst: 2, Callee: "f", Args: []Reg{1, 3}}, "r2 = call f(r1, r3)"},
		{Inst{Op: OpCallInd, Dst: 2, A: 1, Args: []Reg{9}}, "r2 = calli r1(r9)"},
		{Inst{Op: OpRet, A: 7}, "ret r7"},
		{Inst{Op: OpSyscall, Dst: 1, Sys: SysRead, Args: []Reg{2, 3, 4}}, "r1 = sys read(r2, r3, r4)"},
		{Inst{Op: OpTrap, Imm: 3}, "trap 3"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Inst.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	// Every named constant must have a distinct, non-placeholder name.
	seen := map[string]bool{}
	for op := OpConst; op <= OpTrap; op++ {
		s := op.String()
		if strings.Contains(s, "(") || seen[s] {
			t.Errorf("Op(%d).String() = %q: placeholder or duplicate", op, s)
		}
		seen[s] = true
	}
	seen = map[string]bool{}
	for b := Add; b <= Shr; b++ {
		s := b.String()
		if strings.Contains(s, "(") || seen[s] {
			t.Errorf("BinOp(%d).String() = %q: placeholder or duplicate", b, s)
		}
		seen[s] = true
	}
	seen = map[string]bool{}
	for c := Eq; c <= SLe; c++ {
		s := c.String()
		if strings.Contains(s, "(") || seen[s] {
			t.Errorf("CmpOp(%d).String() = %q: placeholder or duplicate", c, s)
		}
		seen[s] = true
	}
	seen = map[string]bool{}
	for sc := SysOpen; sc <= SysArgLen; sc++ {
		s := sc.String()
		if strings.Contains(s, "(") || seen[s] {
			t.Errorf("Sys(%d).String() = %q: placeholder or duplicate", sc, s)
		}
		seen[s] = true
	}
}
