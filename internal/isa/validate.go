package isa

import (
	"errors"
	"fmt"
)

// Validation errors that callers may want to match.
var (
	ErrNoEntry     = errors.New("program has no entry function")
	ErrEmptyBlock  = errors.New("empty basic block")
	ErrNoTerminate = errors.New("block does not end in a terminator")
)

// Validate links the program and checks it: Link followed by Check.
func (p *Program) Validate() error {
	if err := p.Link(); err != nil {
		return err
	}
	return p.Check()
}

// Check reports the first well-formedness violation of a linked program,
// or nil. A well-formed program has:
//   - an entry function that is defined;
//   - a function table whose non-empty entries name defined functions;
//   - functions with a parameter count in [0, NumRegs] and at least one
//     block;
//   - non-empty blocks that end in exactly one terminator and contain none
//     before the end;
//   - every register an instruction reads or writes (Dst, A, B, Args)
//     below NumRegs;
//   - jump and branch targets inside the function;
//   - direct calls to defined functions with their parameter count, and
//     indirect calls only with a non-empty function table, passing the
//     parameter count of every function it names;
//   - known syscalls with their argument count;
//   - valid binary and comparison operators, and access widths of 1, 2, 4
//     or 8 bytes.
//
// Check only reads p, so it may run on a program shared by concurrent
// readers.
func (p *Program) Check() error {
	if p.Entry == "" || p.Func(p.Entry) == nil {
		return fmt.Errorf("program %s: %w (entry=%q)", p.Name, ErrNoEntry, p.Entry)
	}
	for i, name := range p.FuncTable {
		if name == "" {
			continue // unresolvable slot, legal by design
		}
		if p.Func(name) == nil {
			return fmt.Errorf("program %s: functable[%d] names unknown function %q", p.Name, i, name)
		}
	}
	for _, f := range p.Funcs {
		if err := p.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) checkFunc(f *Function) error {
	if f.NParams < 0 || f.NParams > NumRegs {
		return fmt.Errorf("%s.%s: parameter count %d out of range", p.Name, f.Name, f.NParams)
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s.%s: function has no blocks", p.Name, f.Name)
	}
	for _, b := range f.Blocks {
		if len(b.Insts) == 0 {
			return fmt.Errorf("%s.%s.%s: %w", p.Name, f.Name, b.Name, ErrEmptyBlock)
		}
		for i := range b.Insts {
			in := &b.Insts[i]
			last := i == len(b.Insts)-1
			if in.IsTerminator() != last {
				if last {
					return fmt.Errorf("%s.%s.%s: %w", p.Name, f.Name, b.Name, ErrNoTerminate)
				}
				return fmt.Errorf("%s.%s.%s: terminator %s in the middle of a block", p.Name, f.Name, b.Name, in.Op)
			}
			if err := p.checkInst(f, in); err != nil {
				return fmt.Errorf("%s.%s.%s[%d]: %w", p.Name, f.Name, b.Name, i, err)
			}
		}
	}
	return nil
}

func (p *Program) checkInst(f *Function, in *Inst) error {
	// dst, a and b record which register fields the opcode uses.
	var dst, a, b bool
	switch in.Op {
	case OpConst:
		dst = true
	case OpMov, OpBinImm, OpCmpImm, OpLoad:
		dst, a = true, true
	case OpBin, OpCmp:
		dst, a, b = true, true, true
	case OpStore:
		a, b = true, true
	case OpRet:
		a = true
	case OpTrap:
	case OpJmp:
		if !f.hasBlock(in.ThenIdx) {
			return fmt.Errorf("jmp target %q (index %d) out of range", in.Then, in.ThenIdx)
		}
	case OpBr:
		a = true
		if !f.hasBlock(in.ThenIdx) || !f.hasBlock(in.ElseIdx) {
			return fmt.Errorf("br targets %q, %q (indices %d, %d) out of range", in.Then, in.Else, in.ThenIdx, in.ElseIdx)
		}
	case OpCall:
		dst = true
		callee := p.Func(in.Callee)
		if callee == nil {
			return fmt.Errorf("call to unknown function %q", in.Callee)
		}
		if len(in.Args) != callee.NParams {
			return fmt.Errorf("call %s: got %d args, want %d", in.Callee, len(in.Args), callee.NParams)
		}
	case OpCallInd:
		dst, a = true, true
		if len(p.FuncTable) == 0 {
			return errors.New("indirect call in a program with an empty function table")
		}
		for _, name := range p.FuncTable {
			if name == "" {
				continue
			}
			if got, want := len(in.Args), p.Func(name).NParams; got != want {
				return fmt.Errorf("indirect call: %d args but functable entry %q takes %d", got, name, want)
			}
		}
	case OpSyscall:
		dst = true
		want, ok := sysArity[in.Sys]
		if !ok {
			return fmt.Errorf("unknown syscall %d", in.Sys)
		}
		if len(in.Args) != want {
			return fmt.Errorf("syscall %s: got %d args, want %d", in.Sys, len(in.Args), want)
		}
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}

	if dst && in.Dst >= NumRegs {
		return regError("dst", in.Dst)
	}
	if a && in.A >= NumRegs {
		return regError("operand", in.A)
	}
	if b && in.B >= NumRegs {
		return regError("operand", in.B)
	}
	for _, r := range in.Args {
		if r >= NumRegs {
			return regError("argument", r)
		}
	}

	switch in.Op {
	case OpBin, OpBinImm:
		if in.Bin < Add || in.Bin > Shr {
			return fmt.Errorf("invalid binary operator %d", in.Bin)
		}
	case OpCmp, OpCmpImm:
		if in.Cmp < Eq || in.Cmp > SLe {
			return fmt.Errorf("invalid comparison operator %d", in.Cmp)
		}
	case OpLoad, OpStore:
		switch in.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("invalid access width %d", in.Size)
		}
	default:
		// Other opcodes carry no operator or width field to check.
	}
	return nil
}

// hasBlock reports whether idx indexes one of f's blocks.
func (f *Function) hasBlock(idx int) bool {
	return idx >= 0 && idx < len(f.Blocks)
}

func regError(what string, r Reg) error {
	return fmt.Errorf("%s register r%d out of range (file has %d registers)", what, r, NumRegs)
}

var sysArity = map[Sys]int{
	SysOpen:    0,
	SysRead:    3,
	SysSeek:    2,
	SysTell:    1,
	SysSize:    1,
	SysMMap:    1,
	SysAlloc:   1,
	SysFree:    1,
	SysWrite:   2,
	SysExit:    1,
	SysArgRead: 2,
	SysArgLen:  0,
}
