// Package isa defines MIR, the miniature instruction set used throughout the
// OCTOPOCS reproduction as the stand-in for native binaries.
//
// MIR is a word-oriented (64-bit) register machine. A program is a set of
// named functions; a function is a list of named basic blocks; a basic block
// is a list of instructions terminated by exactly one control-transfer
// instruction (Jmp, Br, Ret, Trap, or an exiting Syscall). Every function
// owns a private register file of NumRegs registers; arguments arrive in
// r0..r(n-1) and values are returned through Ret.
//
// The set is deliberately small but expressive enough to write realistic
// file-format parsers: loads and stores of 1/2/4/8 bytes, wrapping two's
// complement arithmetic (so integer-overflow bugs behave as they do in C),
// direct and indirect calls (the latter through a program-level function
// table, which is what makes the static-vs-dynamic CFG distinction from the
// paper meaningful), and a small syscall surface for file I/O and memory
// management. Every phase P1–P4 consumes programs in this representation.
//
// Concurrency: a Program and everything it contains are immutable once
// built (builders hand over ownership), so one Program may back concurrent
// taint runs, VM executions, and parallel symbolic frontier workers.
package isa

import "fmt"

// Reg names one of the NumRegs per-frame registers.
type Reg uint8

// NumRegs is the size of each function's register file. It is generous so
// that the builder in package asm can bump-allocate temporaries without a
// register allocator.
const NumRegs = 224

// Word is the machine word. All registers hold one Word; sub-word loads are
// zero-extended.
type Word = uint64

// Op enumerates instruction opcodes.
type Op uint8

// Instruction opcodes.
const (
	OpConst   Op = iota + 1 // dst = Imm
	OpMov                   // dst = A
	OpBin                   // dst = A <Bin> B
	OpBinImm                // dst = A <Bin> Imm
	OpCmp                   // dst = (A <Cmp> B) ? 1 : 0
	OpCmpImm                // dst = (A <Cmp> Imm) ? 1 : 0
	OpLoad                  // dst = mem[A + Imm] (Size bytes, little endian)
	OpStore                 // mem[A + Imm] = B (Size bytes, little endian)
	OpJmp                   // goto Then
	OpBr                    // if A != 0 goto Then else goto Else
	OpCall                  // dst = Callee(Args...)
	OpCallInd               // dst = functable[A](Args...)
	OpRet                   // return A
	OpSyscall               // dst = syscall Sys(Args...)
	OpTrap                  // abort with code Imm
)

// BinOp enumerates binary arithmetic and bitwise operators. Arithmetic wraps
// modulo 2^64 like C unsigned arithmetic; Div and Mod trap at runtime when
// the divisor is zero.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota + 1
	Sub
	Mul
	Div
	Mod
	And
	Or
	Xor
	Shl
	Shr
)

// CmpOp enumerates comparison operators. Lt/Le/Gt/Ge compare unsigned;
// SLt/SLe compare as two's complement signed values.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota + 1
	Ne
	Lt
	Le
	Gt
	Ge
	SLt
	SLe
)

// Sys enumerates syscalls. The machine exposes a single abstract input file;
// SysOpen returns a descriptor for it. This mirrors how the paper's targets
// consume exactly one attacker-controlled file.
type Sys uint8

// Syscall numbers. SysArgRead/SysArgLen deliver the same attacker input
// through the argument-string channel instead of the file channel, for
// binaries whose PoCs are malformed strings rather than files (the § VII
// extension); a program should consume one channel or the other.
const (
	SysOpen    Sys = iota + 1 // () -> fd of the input file
	SysRead                   // (fd, buf, n) -> bytes read; advances position
	SysSeek                   // (fd, off) -> absolute seek; returns new position
	SysTell                   // (fd) -> current file position indicator
	SysSize                   // (fd) -> file size in bytes
	SysMMap                   // (fd) -> base address of a read-only file mapping
	SysAlloc                  // (n) -> base address of a fresh region
	SysFree                   // (addr) -> 0; frees a region allocated by SysAlloc
	SysWrite                  // (buf, n) -> n; appends to the VM output sink
	SysExit                   // (code) -> does not return
	SysArgRead                // (buf, n) -> bytes read from the argument string
	SysArgLen                 // () -> argument string length
)

// Inst is a single MIR instruction. Which fields are meaningful depends on
// Op; Validate enforces the shape.
type Inst struct {
	Op   Op
	Dst  Reg
	A    Reg
	B    Reg
	Imm  int64
	Bin  BinOp
	Cmp  CmpOp
	Size uint8 // load/store width: 1, 2, 4 or 8
	Sys  Sys
	// CalleeIdx is the position of Callee in Program.Funcs for OpCall,
	// filled in by Program.Link (-1 when no such function exists, which
	// Validate rejects). An int32 fits the padding after Sys, so Inst
	// does not grow.
	CalleeIdx int32
	// Callee is the target function name for OpCall.
	Callee string
	// Args are argument registers for OpCall, OpCallInd and OpSyscall.
	Args []Reg
	// Then and Else are block names for OpJmp (Then only) and OpBr.
	Then string
	Else string

	// Resolved control-flow targets, filled in by Program.Link.
	ThenIdx int
	ElseIdx int
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Inst) IsTerminator() bool {
	switch in.Op {
	case OpJmp, OpBr, OpRet, OpTrap:
		return true
	case OpSyscall:
		return in.Sys == SysExit
	default:
		return false
	}
}

// Block is a basic block: a straight-line instruction sequence ending in a
// single terminator.
type Block struct {
	Name  string
	Insts []Inst
}

// Terminator returns the block's final instruction. It panics on an empty
// block; Validate rejects those first.
func (b *Block) Terminator() *Inst {
	return &b.Insts[len(b.Insts)-1]
}

// Function is a named function: a parameter count and a list of basic
// blocks. Blocks[0] is the entry block. A Function belongs to one Program.
type Function struct {
	Name    string
	NParams int
	Blocks  []*Block
	// Index is the function's position in Program.Funcs, filled in by
	// Program.Link, so per-function tables can be slices, not maps.
	Index int

	blockIdx map[string]int
}

// BlockIndex returns the index of the named block, or -1 if absent.
func (f *Function) BlockIndex(name string) int {
	if i, ok := f.blockIdx[name]; ok {
		return i
	}
	return -1
}

// Program is a linked set of functions plus the indirect-call function
// table. Entry names the function where execution starts.
type Program struct {
	Name  string
	Entry string
	Funcs []*Function
	// FuncTable lists function names reachable through OpCallInd. An
	// indirect call with index i dispatches to FuncTable[i]. Entries may
	// be empty strings to model slots whose target the toolchain cannot
	// resolve statically (the angr-failure analog).
	FuncTable []string

	funcIdx map[string]int
}

// Func returns the named function, or nil if absent.
func (p *Program) Func(name string) *Function {
	if i, ok := p.funcIdx[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// FuncNames returns the names of all functions in definition order.
func (p *Program) FuncNames() []string {
	names := make([]string, len(p.Funcs))
	for i, f := range p.Funcs {
		names[i] = f.Name
	}
	return names
}

// NumInsts returns the total instruction count across all functions.
func (p *Program) NumInsts() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
	}
	return n
}

// Link resolves block and function name references to indices and builds
// the lookup maps. It must be called (directly or via Validate) before the
// program is executed. Link is idempotent.
func (p *Program) Link() error {
	p.funcIdx = make(map[string]int, len(p.Funcs))
	for i, f := range p.Funcs {
		if _, dup := p.funcIdx[f.Name]; dup {
			return fmt.Errorf("program %s: duplicate function %q", p.Name, f.Name)
		}
		p.funcIdx[f.Name] = i
		f.Index = i
	}
	for _, f := range p.Funcs {
		f.blockIdx = make(map[string]int, len(f.Blocks))
		for i, b := range f.Blocks {
			if _, dup := f.blockIdx[b.Name]; dup {
				return fmt.Errorf("%s.%s: duplicate block %q", p.Name, f.Name, b.Name)
			}
			f.blockIdx[b.Name] = i
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				switch in.Op {
				case OpJmp:
					idx, ok := f.blockIdx[in.Then]
					if !ok {
						return fmt.Errorf("%s.%s.%s: jmp to unknown block %q", p.Name, f.Name, b.Name, in.Then)
					}
					in.ThenIdx = idx
				case OpBr:
					ti, ok := f.blockIdx[in.Then]
					if !ok {
						return fmt.Errorf("%s.%s.%s: br to unknown block %q", p.Name, f.Name, b.Name, in.Then)
					}
					ei, ok := f.blockIdx[in.Else]
					if !ok {
						return fmt.Errorf("%s.%s.%s: br to unknown block %q", p.Name, f.Name, b.Name, in.Else)
					}
					in.ThenIdx, in.ElseIdx = ti, ei
				case OpCall:
					in.CalleeIdx = -1
					if idx, ok := p.funcIdx[in.Callee]; ok {
						in.CalleeIdx = int32(idx)
					}
				default:
					// Other opcodes name no block or function.
				}
			}
		}
	}
	return nil
}

// Loc identifies a program point: a function, block index and instruction
// index within the block.
type Loc struct {
	Func  string
	Block int
	Inst  int
}

// String renders the location as func:block:inst.
func (l Loc) String() string {
	return fmt.Sprintf("%s:%d:%d", l.Func, l.Block, l.Inst)
}
