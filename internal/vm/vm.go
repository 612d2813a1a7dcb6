package vm

import (
	"fmt"
	"sync"

	"octopocs/internal/isa"
)

// DefaultMaxSteps is the instruction budget when Config.MaxSteps is zero.
// Exhausting it classifies the run as a hang.
const DefaultMaxSteps = 2_000_000

// Config parameterizes a run.
type Config struct {
	// Input is the contents of the single abstract input file.
	Input []byte
	// MaxSteps is the instruction budget; DefaultMaxSteps if zero.
	MaxSteps int64
	// Hooks receive instrumentation events; may be nil.
	Hooks *Hooks
	// Stop is a cooperative cancellation signal (typically a context's
	// Done channel). The machine polls it every stopCheckMask+1 steps and
	// ends the run with StatusStopped once it is closed. May be nil.
	Stop <-chan struct{}
	// Metrics receives run-level counters (flushed once per Run); may be
	// nil.
	Metrics *Metrics
}

// stopCheckMask throttles Stop-channel polling: the check fires when
// steps&stopCheckMask == 0, i.e. every 2048 instructions — frequent enough
// that cancellation latency stays in the microsecond range.
const stopCheckMask = 2047

// Hooks is the instrumentation surface, the analog of a PIN tool. Every
// field may be nil. Hook callbacks must not retain the slices they are
// passed beyond the call.
type Hooks struct {
	// OnInst fires before each instruction executes.
	OnInst func(loc isa.Loc, frameID uint64, in *isa.Inst)
	// OnBlock fires when control enters a basic block. fn is the linked
	// function, so a hook can index per-function tables by fn.Index.
	OnBlock func(fn *isa.Function, block int)
	// OnBlockRegs fires when control enters a basic block, exposing the
	// frame's register file at the block boundary; differential checkers
	// (the absint soundness fuzz target) compare it against static
	// abstractions. The slice aliases live machine state.
	OnBlockRegs func(fn string, block int, regs []uint64)
	// OnLoad fires after a successful memory load.
	OnLoad func(loc isa.Loc, frameID uint64, in *isa.Inst, addr uint64, val uint64)
	// OnStore fires after a successful memory store.
	OnStore func(loc isa.Loc, frameID uint64, in *isa.Inst, addr uint64, val uint64)
	// OnCall fires after a call's callee frame is set up. args aliases the
	// callee's argument registers. dst is the caller register receiving
	// the return value; callerID/calleeID identify the frames for
	// register-taint bookkeeping.
	OnCall func(site isa.Loc, callee string, args []uint64, callerID, calleeID uint64, dst isa.Reg)
	// OnRet fires when a function returns. dst is the caller register
	// receiving val.
	OnRet func(fn string, val uint64, callerID, calleeID uint64, dst isa.Reg)
	// OnRead fires after a successful SysRead: n bytes of file data from
	// fileOff were copied to bufAddr.
	OnRead func(fd uint64, fileOff int64, bufAddr uint64, n int)
	// OnMMap fires after a successful SysMMap of the whole input file.
	OnMMap func(fd uint64, base uint64, size int)
}

// file is one open descriptor over the input.
type file struct {
	pos int64
}

// frame is one activation record.
type frame struct {
	fn     *isa.Function
	regs   [isa.NumRegs]uint64
	block  int
	inst   int
	retDst isa.Reg // caller register receiving our return value
	id     uint64
}

// Machine interprets one program over one input. Create with New, drive with
// Run. Reset readies the machine for another input, reusing its memory,
// file table and output buffer, so a fuzzing campaign runs every exec on
// one machine.
type Machine struct {
	prog     *isa.Program
	mem      *Memory
	input    []byte
	files    []file
	frames   []*frame
	hooks    Hooks
	maxSteps int64
	stop     <-chan struct{}
	metrics  *Metrics
	steps    int64
	output   []byte
	nextID   uint64
	// argPos is the cursor of the argument-string channel (SysArgRead).
	argPos int64
	// out is the outcome Run returns, valid until the next Reset.
	out Outcome
}

// New prepares a machine over cfg.Input. The program must have been
// validated.
func New(prog *isa.Program, cfg Config) *Machine {
	m := &Machine{
		prog:     prog,
		mem:      NewMemory(),
		maxSteps: cfg.MaxSteps,
		stop:     cfg.Stop,
		metrics:  cfg.Metrics,
	}
	if m.maxSteps <= 0 {
		m.maxSteps = DefaultMaxSteps
	}
	if cfg.Hooks != nil {
		m.hooks = *cfg.Hooks
	}
	m.Reset(cfg.Input)
	return m
}

// Reset readies the machine to run input from the state New leaves: an
// empty address space, no open files, no output and a zero step count. The
// program, hooks, step budget, stop channel and metrics stay. The previous
// run's Outcome, Output and regions are invalid after Reset: their storage
// is reused.
func (m *Machine) Reset(input []byte) {
	m.mem.reset()
	m.input = input
	m.files = m.files[:0]
	m.steps, m.nextID, m.argPos = 0, 0, 0
	m.output = m.output[:0]
}

// Memory exposes the address space, for post-mortem inspection.
func (m *Machine) Memory() *Memory { return m.mem }

// FilePos returns the position indicator of fd, or -1 if fd is not open.
// This is the paper's "file position indicator" consulted by phase P3.
func (m *Machine) FilePos(fd uint64) int64 {
	if f := m.fileFor(fd); f != nil {
		return f.pos
	}
	return -1
}

func (m *Machine) fileFor(fd uint64) *file {
	idx := int64(fd) - 3
	if idx < 0 || idx >= int64(len(m.files)) {
		return nil
	}
	return &m.files[idx]
}

func (m *Machine) top() *frame { return m.frames[len(m.frames)-1] }

func (m *Machine) loc() isa.Loc {
	f := m.top()
	return isa.Loc{Func: f.fn.Name, Block: f.block, Inst: f.inst}
}

func (m *Machine) backtrace() []StackEntry {
	bt := make([]StackEntry, len(m.frames))
	for i, f := range m.frames {
		e := StackEntry{Func: f.fn.Name}
		if i > 0 {
			caller := m.frames[i-1]
			e.CallSite = isa.Loc{Func: caller.fn.Name, Block: caller.block, Inst: caller.inst}
		}
		bt[i] = e
	}
	return bt
}

// finish ends the run with status st, filling the machine-owned outcome.
func (m *Machine) finish(st Status) *Outcome {
	m.out = Outcome{Status: st, Steps: m.steps, Output: m.output}
	return &m.out
}

// crash ends the run with a crash of kind at the current location. The
// Crash itself is allocated: callers keep it in reports and caches, where a
// machine-owned one would pin the whole machine.
func (m *Machine) crash(kind CrashKind, addr uint64, code int64) *Outcome {
	out := m.finish(StatusCrash)
	out.Crash = &Crash{
		Kind:      kind,
		Loc:       m.loc(),
		Addr:      addr,
		Code:      code,
		Backtrace: m.backtrace(),
	}
	return out
}

func (m *Machine) crashFault(f *memFault) *Outcome {
	return m.crash(f.kind, f.addr, 0)
}

func (m *Machine) exit(code uint64) *Outcome {
	out := m.finish(StatusExit)
	out.ExitCode = code
	return out
}

// framePool recycles activation records across calls and machines. A frame
// carries the whole register file, about 1.8 KB, so a fresh frame per call
// was most of the bytes a fuzzing campaign allocated and most of the
// collections it caused. Run and doRet hand a frame back only after its
// last use; pushFrame clears it.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// pushFrame activates fn with zeroed registers. The caller copies the
// arguments into the returned frame and then calls entered.
func (m *Machine) pushFrame(fn *isa.Function, retDst isa.Reg) *frame {
	m.nextID++
	fr := framePool.Get().(*frame)
	*fr = frame{fn: fn, retDst: retDst, id: m.nextID}
	m.frames = append(m.frames, fr)
	return fr
}

// entered notifies OnCall, OnBlock and OnBlockRegs that fr, the top frame,
// was entered with nargs arguments.
func (m *Machine) entered(fr *frame, nargs int) {
	if m.hooks.OnCall != nil {
		var callerID uint64
		var site isa.Loc
		if n := len(m.frames); n > 1 {
			caller := m.frames[n-2]
			callerID = caller.id
			site = isa.Loc{Func: caller.fn.Name, Block: caller.block, Inst: caller.inst}
		}
		m.hooks.OnCall(site, fr.fn.Name, fr.regs[:nargs:nargs], callerID, fr.id, fr.retDst)
	}
	if m.hooks.OnBlock != nil {
		m.hooks.OnBlock(fr.fn, 0)
	}
	if m.hooks.OnBlockRegs != nil {
		m.hooks.OnBlockRegs(fr.fn.Name, 0, fr.regs[:])
	}
}

// Run executes the program to completion. The Outcome is owned by the
// machine and stays valid until the next Reset.
func (m *Machine) Run() *Outcome {
	out := m.run()
	for _, fr := range m.frames {
		framePool.Put(fr)
	}
	clear(m.frames)
	m.frames = m.frames[:0]
	m.metrics.observe(out)
	return out
}

func (m *Machine) run() *Outcome {
	m.entered(m.pushFrame(m.prog.Func(m.prog.Entry), 0), 0)
	for {
		if m.stop != nil && m.steps&stopCheckMask == 0 {
			select {
			case <-m.stop:
				return m.finish(StatusStopped)
			default:
			}
		}
		if m.steps >= m.maxSteps {
			out := m.finish(StatusHang)
			out.Crash = &Crash{
				Kind:      CrashHang,
				Loc:       m.loc(),
				Backtrace: m.backtrace(),
			}
			return out
		}
		m.steps++
		fr := m.top()
		in := &fr.fn.Blocks[fr.block].Insts[fr.inst]
		if m.hooks.OnInst != nil {
			m.hooks.OnInst(m.loc(), fr.id, in)
		}
		out := m.step(fr, in)
		if out != nil {
			return out
		}
	}
}

// step executes one instruction; a non-nil return ends the run.
func (m *Machine) step(fr *frame, in *isa.Inst) *Outcome {
	advance := true
	switch in.Op {
	case isa.OpConst:
		fr.regs[in.Dst] = uint64(in.Imm)
	case isa.OpMov:
		fr.regs[in.Dst] = fr.regs[in.A]
	case isa.OpBin:
		v, fault := binOp(in.Bin, fr.regs[in.A], fr.regs[in.B])
		if fault {
			return m.crash(CrashDiv, 0, 0)
		}
		fr.regs[in.Dst] = v
	case isa.OpBinImm:
		v, fault := binOp(in.Bin, fr.regs[in.A], uint64(in.Imm))
		if fault {
			return m.crash(CrashDiv, 0, 0)
		}
		fr.regs[in.Dst] = v
	case isa.OpCmp:
		fr.regs[in.Dst] = cmpOp(in.Cmp, fr.regs[in.A], fr.regs[in.B])
	case isa.OpCmpImm:
		fr.regs[in.Dst] = cmpOp(in.Cmp, fr.regs[in.A], uint64(in.Imm))
	case isa.OpLoad:
		addr := fr.regs[in.A] + uint64(in.Imm)
		v, fault := m.mem.Load(addr, in.Size)
		if fault != nil {
			return m.crashFault(fault)
		}
		fr.regs[in.Dst] = v
		if m.hooks.OnLoad != nil {
			m.hooks.OnLoad(m.loc(), fr.id, in, addr, v)
		}
	case isa.OpStore:
		addr := fr.regs[in.A] + uint64(in.Imm)
		v := fr.regs[in.B]
		if fault := m.mem.Store(addr, in.Size, v); fault != nil {
			return m.crashFault(fault)
		}
		if m.hooks.OnStore != nil {
			m.hooks.OnStore(m.loc(), fr.id, in, addr, v)
		}
	case isa.OpJmp:
		m.enterBlock(fr, in.ThenIdx)
		advance = false
	case isa.OpBr:
		if fr.regs[in.A] != 0 {
			m.enterBlock(fr, in.ThenIdx)
		} else {
			m.enterBlock(fr, in.ElseIdx)
		}
		advance = false
	case isa.OpCall:
		m.doCall(fr, m.prog.Funcs[in.CalleeIdx], in)
		advance = false
	case isa.OpCallInd:
		idx := fr.regs[in.A]
		callee := m.resolveIndirect(idx)
		if callee == nil {
			return m.crash(CrashBadCall, idx, 0)
		}
		m.doCall(fr, callee, in)
		advance = false
	case isa.OpRet:
		if out := m.doRet(fr, fr.regs[in.A]); out != nil {
			return out
		}
		advance = false
	case isa.OpTrap:
		return m.crash(CrashTrap, 0, in.Imm)
	case isa.OpSyscall:
		out, adv := m.doSyscall(fr, in)
		if out != nil {
			return out
		}
		advance = adv
	default:
		// Validate rejects unknown opcodes; reaching here is a bug.
		panic(fmt.Sprintf("vm: unknown opcode %d", in.Op))
	}
	if advance {
		fr.inst++
	}
	return nil
}

// resolveIndirect maps a function-table index to a callable function.
func (m *Machine) resolveIndirect(idx uint64) *isa.Function {
	if idx >= uint64(len(m.prog.FuncTable)) {
		return nil
	}
	name := m.prog.FuncTable[idx]
	if name == "" {
		return nil
	}
	return m.prog.Func(name)
}

func (m *Machine) enterBlock(fr *frame, block int) {
	fr.block = block
	fr.inst = 0
	if m.hooks.OnBlock != nil {
		m.hooks.OnBlock(fr.fn, block)
	}
	if m.hooks.OnBlockRegs != nil {
		m.hooks.OnBlockRegs(fr.fn.Name, block, fr.regs[:])
	}
}

// doCall enters callee, copying the argument registers of in straight
// from the caller's frame into the callee's.
func (m *Machine) doCall(fr *frame, callee *isa.Function, in *isa.Inst) {
	cf := m.pushFrame(callee, in.Dst)
	for i, r := range in.Args {
		cf.regs[i] = fr.regs[r]
	}
	m.entered(cf, len(in.Args))
}

// doRet pops the current frame and recycles it. Returning from the entry
// function ends the run with the return value as exit code.
func (m *Machine) doRet(fr *frame, val uint64) *Outcome {
	defer framePool.Put(fr)
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) == 0 {
		if m.hooks.OnRet != nil {
			m.hooks.OnRet(fr.fn.Name, val, 0, fr.id, 0)
		}
		return m.exit(val)
	}
	caller := m.top()
	caller.regs[fr.retDst] = val
	if m.hooks.OnRet != nil {
		m.hooks.OnRet(fr.fn.Name, val, caller.id, fr.id, fr.retDst)
	}
	caller.inst++ // resume after the call
	return nil
}

func binOp(op isa.BinOp, a, b uint64) (v uint64, divFault bool) {
	switch op {
	case isa.Add:
		return a + b, false
	case isa.Sub:
		return a - b, false
	case isa.Mul:
		return a * b, false
	case isa.Div:
		if b == 0 {
			return 0, true
		}
		return a / b, false
	case isa.Mod:
		if b == 0 {
			return 0, true
		}
		return a % b, false
	case isa.And:
		return a & b, false
	case isa.Or:
		return a | b, false
	case isa.Xor:
		return a ^ b, false
	case isa.Shl:
		if b >= 64 {
			return 0, false
		}
		return a << b, false
	case isa.Shr:
		if b >= 64 {
			return 0, false
		}
		return a >> b, false
	default:
		panic(fmt.Sprintf("vm: unknown binop %d", op))
	}
}

func cmpOp(op isa.CmpOp, a, b uint64) uint64 {
	var ok bool
	switch op {
	case isa.Eq:
		ok = a == b
	case isa.Ne:
		ok = a != b
	case isa.Lt:
		ok = a < b
	case isa.Le:
		ok = a <= b
	case isa.Gt:
		ok = a > b
	case isa.Ge:
		ok = a >= b
	case isa.SLt:
		ok = int64(a) < int64(b)
	case isa.SLe:
		ok = int64(a) <= int64(b)
	default:
		panic(fmt.Sprintf("vm: unknown cmpop %d", op))
	}
	if ok {
		return 1
	}
	return 0
}
