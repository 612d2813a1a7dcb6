// Package symex implements symbolic execution of MIR programs: the engine
// behind OCTOPOCS phases P2 (guiding-input generation) and P3 (combining),
// and the naive-exploration baseline of Table IV.
//
// The input file is fully symbolic: byte i of the file is the expression
// symbol in[i]. Execution mirrors the concrete vm package, but registers and
// memory bytes hold expressions; branch decisions on symbolic conditions are
// resolved by the directed policy (backward-path distances plus
// satisfiability checks) or, in naive mode, by forking.
//
// Directed execution (Run) is Algorithm 2 of the paper on the frontier
// engine of frontier.go: explorer goroutines — one by default — share a
// min-heap of pending decision alternatives ordered by backward-path
// distance, and commit the minimal-path outcome. Naive exploration
// (RunNaive, Discover) is a sequential BFS/DFS fork loop over the same
// stepping core.
//
// Concurrency: an Executor and its States are confined to one goroutine and
// are not safe for concurrent use. The frontier engine gets its concurrency
// by giving every worker a private Executor and exchanging state snapshots
// through the frontier heap that no two workers ever mutate; the only
// caller-visible consequence is that a Visitor runs concurrently when
// Config.Workers > 1 and must be safe for that.
package symex

import (
	"fmt"
	"sort"

	"octopocs/internal/expr"
	"octopocs/internal/isa"
)

// Frame is one symbolic activation record.
type Frame struct {
	fn     *isa.Function
	regs   [isa.NumRegs]*expr.Expr
	block  int
	inst   int
	retDst isa.Reg
	// visits counts how many times each block was entered in this frame,
	// for loop-state detection and the θ bound.
	visits map[int]int
}

func (f *Frame) clone() *Frame {
	nf := &Frame{
		fn:     f.fn,
		regs:   f.regs,
		block:  f.block,
		inst:   f.inst,
		retDst: f.retDst,
		visits: make(map[int]int, len(f.visits)),
	}
	for k, v := range f.visits {
		nf.visits[k] = v
	}
	return nf
}

// region is a symbolic memory region. Bytes are expressions; a nil entry
// reads as the concrete zero byte.
type region struct {
	base     uint64
	size     uint64
	data     map[uint64]*expr.Expr // keyed by offset within the region
	freed    bool
	readOnly bool
}

func (r *region) end() uint64 { return r.base + r.size }

func (r *region) clone() *region {
	nr := &region{base: r.base, size: r.size, freed: r.freed, readOnly: r.readOnly}
	nr.data = make(map[uint64]*expr.Expr, len(r.data))
	for k, v := range r.data {
		nr.data[k] = v
	}
	return nr
}

// Mem is the symbolic address space. Layout constants mirror the concrete
// machine so crash behavior matches.
type Mem struct {
	regions []*region
	next    uint64
}

const (
	nullGuard = 0x1000
	heapBase  = 0x10000
	regionGap = 64
	maxAlloc  = 1 << 26
)

// newMem returns an empty symbolic address space.
func newMem() *Mem {
	return &Mem{next: heapBase}
}

func (m *Mem) clone() *Mem {
	nm := &Mem{next: m.next, regions: make([]*region, len(m.regions))}
	for i, r := range m.regions {
		nm.regions[i] = r.clone()
	}
	return nm
}

// footprint estimates the heap bytes this address space retains; used by
// the naive-mode memory budget.
func (m *Mem) footprint() int64 {
	total := int64(0)
	for _, r := range m.regions {
		total += 64 + int64(len(r.data))*48
	}
	return total
}

func (m *Mem) alloc(n uint64) uint64 {
	if n > maxAlloc {
		return 0
	}
	if n == 0 {
		n = 1
	}
	r := &region{base: m.next, size: n, data: make(map[uint64]*expr.Expr)}
	m.regions = append(m.regions, r)
	m.next += (n + regionGap + 15) &^ 15
	return r.base
}

func (m *Mem) find(addr uint64) *region {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].base > addr
	})
	if i == 0 {
		return nil
	}
	r := m.regions[i-1]
	if addr >= r.end() {
		return nil
	}
	return r
}

// fault mirrors vm crash kinds for the symbolic machine.
type fault struct {
	kind string
	addr uint64
}

func (f *fault) String() string { return fmt.Sprintf("%s at %#x", f.kind, f.addr) }

func (m *Mem) check(addr, size uint64, write bool) (*region, *fault) {
	if addr < nullGuard {
		return nil, &fault{kind: "null-deref", addr: addr}
	}
	r := m.find(addr)
	if r == nil {
		return nil, &fault{kind: "out-of-bounds", addr: addr}
	}
	if r.freed {
		return nil, &fault{kind: "use-after-free", addr: addr}
	}
	if addr+size > r.end() || addr+size < addr {
		return nil, &fault{kind: "out-of-bounds", addr: addr}
	}
	if write && r.readOnly {
		return nil, &fault{kind: "readonly-write", addr: addr}
	}
	return r, nil
}

// load reads a little-endian value of the given width as an expression.
func (m *Mem) load(addr uint64, size uint8) (*expr.Expr, *fault) {
	r, f := m.check(addr, uint64(size), false)
	if f != nil {
		return nil, f
	}
	var out *expr.Expr
	for i := uint64(0); i < uint64(size); i++ {
		b := r.data[addr-r.base+i]
		if b == nil {
			b = expr.Zero
		}
		shifted := expr.Bin(expr.OpShl, b, expr.Const(8*i))
		if out == nil {
			out = shifted
		} else {
			out = expr.Bin(expr.OpOr, out, shifted)
		}
	}
	return out, nil
}

// store writes a little-endian value of the given width.
func (m *Mem) store(addr uint64, size uint8, val *expr.Expr) *fault {
	r, f := m.check(addr, uint64(size), true)
	if f != nil {
		return f
	}
	for i := uint64(0); i < uint64(size); i++ {
		var b *expr.Expr
		if size == 1 && isByteSized(val) {
			b = val
		} else {
			b = expr.Bin(expr.OpAnd, expr.Bin(expr.OpShr, val, expr.Const(8*i)), expr.Const(0xFF))
		}
		r.data[addr-r.base+i] = b
	}
	return nil
}

// isByteSized reports expressions statically known to fit in one byte, so
// single-byte stores can skip the masking wrapper.
func isByteSized(e *expr.Expr) bool {
	if v, ok := e.IsConst(); ok {
		return v <= 0xFF
	}
	if e.Op == expr.OpSym {
		return true
	}
	return e.IsBool()
}

// setBytes writes raw expression bytes starting at addr (used by reads from
// the symbolic file).
func (m *Mem) setBytes(addr uint64, bytes []*expr.Expr) *fault {
	if len(bytes) == 0 {
		return nil
	}
	r, f := m.check(addr, uint64(len(bytes)), true)
	if f != nil {
		return f
	}
	for i, b := range bytes {
		r.data[addr-r.base+uint64(i)] = b
	}
	return nil
}

// free releases a region, with the same strictness as the concrete VM.
func (m *Mem) free(base uint64) *fault {
	r := m.find(base)
	if r == nil || r.base != base {
		return &fault{kind: "out-of-bounds", addr: base}
	}
	if r.freed {
		return &fault{kind: "use-after-free", addr: base}
	}
	r.freed = true
	return nil
}

// mapSymbolicFile creates a read-only region whose byte i is in[i].
func (m *Mem) mapSymbolicFile(size int) uint64 {
	base := m.alloc(uint64(size))
	r := m.regions[len(m.regions)-1]
	r.readOnly = true
	for i := 0; i < size; i++ {
		r.data[uint64(i)] = expr.Sym(i)
	}
	return base
}

// StateKind classifies a symbolic execution state, matching the four state
// types of paper § III-B plus terminal bookkeeping kinds.
type StateKind int

// State kinds.
const (
	KindActive StateKind = iota + 1
	// KindLoop is the paper's transient loop state: a decision that
	// re-enters a visited block. The executor counts these in
	// Stats.LoopStates rather than parking the state, since the
	// directed policy resolves them in place.
	KindLoop
	KindLoopDead
	KindProgramDead
	KindExited
	KindCrashed
	KindHung
	// KindInfeasible marks a state whose objective-placement constraints
	// contradicted the path condition (visitor returned Infeasible).
	KindInfeasible
)

// String renders the kind.
func (k StateKind) String() string {
	switch k {
	case KindActive:
		return "active"
	case KindLoop:
		return "loop"
	case KindLoopDead:
		return "loop-dead"
	case KindProgramDead:
		return "program-dead"
	case KindExited:
		return "exited"
	case KindCrashed:
		return "crashed"
	case KindHung:
		return "hung"
	case KindInfeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// argChannel is the lastReadFD sentinel selecting the argument-string
// cursor instead of a file descriptor.
const argChannel = -2

// State is one symbolic machine state.
type State struct {
	frames     []*Frame
	mem        *Mem
	filePos    []int64 // per-fd position
	lastReadFD int     // index into filePos of the most recent read/seek
	// argPos is the argument-string channel cursor.
	argPos      int64
	constraints []*expr.Expr
	steps       int64
	kind        StateKind
	// why records the reason for a dead/terminal kind.
	why string
	// entries records the objective-function arrivals observed so far.
	entries []EpEntry
	// pinnedDispatch marks a state produced by an indirect-call fork: its
	// program counter is still at the call, and the naive loop must
	// execute it rather than fork it again.
	pinnedDispatch bool
	// path is the state's identity in the parallel frontier: the sequence
	// of emission ordinals taken from the root. A state's emitted children
	// extend its path by one element, so a path is always lexicographically
	// greater than every proper prefix — the property the commit protocol's
	// determinism argument rests on. The slice is immutable once assigned
	// and may be shared between clones.
	path []uint32
	// emitSeq numbers the alternatives this state has emitted so far; the
	// next emitted child gets path+[emitSeq].
	emitSeq uint32
}

func newState() *State {
	return &State{mem: newMem(), kind: KindActive, lastReadFD: -1}
}

func (s *State) clone() *State {
	ns := &State{
		frames:      make([]*Frame, len(s.frames)),
		mem:         s.mem.clone(),
		filePos:     append([]int64(nil), s.filePos...),
		lastReadFD:  s.lastReadFD,
		argPos:      s.argPos,
		constraints: append([]*expr.Expr(nil), s.constraints...),
		steps:       s.steps,
		kind:        s.kind,
		why:         s.why,
		entries:     append([]EpEntry(nil), s.entries...),
		path:        s.path,
		emitSeq:     s.emitSeq,
	}
	for i, f := range s.frames {
		ns.frames[i] = f.clone()
	}
	return ns
}

// footprint estimates retained bytes for the naive-mode memory budget.
func (s *State) footprint() int64 {
	total := s.mem.footprint()
	total += int64(len(s.frames)) * (isa.NumRegs*8 + 128)
	for _, f := range s.frames {
		total += int64(len(f.visits)) * 16
	}
	for _, c := range s.constraints {
		total += int64(c.Size()) * 40
	}
	return total
}

func (s *State) top() *Frame { return s.frames[len(s.frames)-1] }

func (s *State) loc() isa.Loc {
	f := s.top()
	return isa.Loc{Func: f.fn.Name, Block: f.block, Inst: f.inst}
}

// Constraints returns the path constraints accumulated so far. The caller
// must not modify the returned slice.
func (s *State) Constraints() []*expr.Expr { return s.constraints }

// AddConstraint appends a constraint to the path condition; used by the
// combining phase to bind crash-primitive bytes.
func (s *State) AddConstraint(c *expr.Expr) {
	s.constraints = append(s.constraints, c)
}

// FilePos returns the position indicator of the most recently used input
// channel — the paper's "file position indicator" read on ep entry. For
// argument-string programs this is the argument cursor.
func (s *State) FilePos() int64 {
	if s.lastReadFD == argChannel {
		return s.argPos
	}
	if s.lastReadFD < 0 || s.lastReadFD >= len(s.filePos) {
		return 0
	}
	return s.filePos[s.lastReadFD]
}

// Kind returns the state's classification.
func (s *State) Kind() StateKind { return s.kind }

// Why explains terminal kinds.
func (s *State) Why() string { return s.why }

func (s *State) die(kind StateKind, why string) {
	s.kind = kind
	s.why = why
}
