package absint

import (
	"fmt"

	"octopocs/internal/isa"
)

// widenAfter is how many refining joins a block's entry state absorbs
// before further refinements widen to force convergence.
const widenAfter = 4

// RegState is the abstract register file at one program point.
type RegState [isa.NumRegs]Val

// FuncRanges is the per-function analysis result.
type FuncRanges struct {
	// Fn is the analyzed function.
	Fn *isa.Function
	// Entry[b] is the abstract register state on entry to block b; nil when
	// the analysis proves b unreachable from the function entry for every
	// argument vector.
	Entry []*RegState
	// Branch[b] is the proven successor of the two-way conditional branch
	// terminating block b, or -1 when the analysis cannot decide it (or the
	// block ends in something else).
	Branch []int
}

// Summary counts what one analysis proved, for telemetry and reports.
type Summary struct {
	Funcs          int `json:"funcs"`
	Blocks         int `json:"blocks"`
	Unreachable    int `json:"unreachable_blocks"`
	ProvedBranches int `json:"proved_branches"`
}

func (s Summary) String() string {
	return fmt.Sprintf("absint: %d funcs, %d blocks (%d unreachable), %d branches proved",
		s.Funcs, s.Blocks, s.Unreachable, s.ProvedBranches)
}

// Result is one whole-program analysis: every function analyzed
// independently under ⊤ arguments, so every fact holds for every call.
type Result struct {
	Prog    *isa.Program
	Funcs   map[string]*FuncRanges
	Summary Summary
}

// Analyze runs the abstract interpretation over every function of prog.
func Analyze(prog *isa.Program) *Result {
	res := &Result{Prog: prog, Funcs: make(map[string]*FuncRanges, len(prog.Funcs))}
	for _, f := range prog.Funcs {
		fr := analyzeFunc(f)
		res.Funcs[f.Name] = fr
		res.Summary.Funcs++
		res.Summary.Blocks += len(f.Blocks)
		for b := range f.Blocks {
			if fr.Entry[b] == nil {
				res.Summary.Unreachable++
			}
			if fr.Branch[b] >= 0 {
				res.Summary.ProvedBranches++
			}
		}
	}
	return res
}

// entryState is the sound function-entry abstraction: parameter registers
// are ⊤ (callers pass anything), every other register is the constant 0 —
// the VM zero-initializes frames, and isa's Check rejects calls whose
// argument count disagrees with NParams.
func entryState(f *isa.Function) *RegState {
	st := new(RegState)
	for i := range st {
		if i < f.NParams {
			st[i] = Top()
		} else {
			st[i] = Const(0)
		}
	}
	return st
}

// analyzeFunc runs the conditional-flow worklist fixpoint over one
// function. Edges out of a branch whose condition the abstract state
// decides flow only in the proven direction, which is what lets the
// analysis prove blocks unreachable.
func analyzeFunc(f *isa.Function) *FuncRanges {
	n := len(f.Blocks)
	fr := &FuncRanges{Fn: f, Entry: make([]*RegState, n), Branch: make([]int, n)}
	for i := range fr.Branch {
		fr.Branch[i] = -1
	}
	if n == 0 {
		return fr
	}
	fr.Entry[0] = entryState(f)

	joins := make([]int, n)
	inWork := make([]bool, n)
	work := []int{0}
	inWork[0] = true

	flow := func(to int, st *RegState) {
		cur := fr.Entry[to]
		if cur == nil {
			cp := *st
			fr.Entry[to] = &cp
		} else {
			changed := false
			widen := joins[to] >= widenAfter
			for i := range cur {
				var nv Val
				if widen {
					nv = Widen(cur[i], st[i])
				} else {
					nv = Join(cur[i], st[i])
				}
				if nv != cur[i] {
					cur[i] = nv
					changed = true
				}
			}
			if !changed {
				return
			}
			joins[to]++
		}
		if !inWork[to] {
			work = append(work, to)
			inWork[to] = true
		}
	}

	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b] = false

		st := *fr.Entry[b]
		blk := f.Blocks[b]
		for i := range blk.Insts {
			transfer(&st, &blk.Insts[i])
		}
		term := blk.Terminator()
		switch term.Op {
		case isa.OpJmp:
			flow(term.ThenIdx, &st)
		case isa.OpBr:
			if term.ThenIdx == term.ElseIdx {
				flow(term.ThenIdx, &st)
				break
			}
			switch st[term.A].Decide() {
			case 1:
				flow(term.ThenIdx, &st)
			case -1:
				flow(term.ElseIdx, &st)
			default:
				flow(term.ThenIdx, &st)
				flow(term.ElseIdx, &st)
			}
		default:
			// Ret, Trap and exiting syscalls have no successors.
		}
	}

	// Post-pass: decide each reachable two-way branch from the fixpoint.
	for b := range f.Blocks {
		if fr.Entry[b] == nil {
			continue
		}
		blk := f.Blocks[b]
		term := blk.Terminator()
		if term.Op != isa.OpBr || term.ThenIdx == term.ElseIdx {
			continue
		}
		st := *fr.Entry[b]
		for i := range blk.Insts {
			transfer(&st, &blk.Insts[i])
		}
		switch st[term.A].Decide() {
		case 1:
			fr.Branch[b] = term.ThenIdx
		case -1:
			fr.Branch[b] = term.ElseIdx
		}
	}
	fr.dropUnprovedReach()
	return fr
}

// dropUnprovedReach keeps only the blocks reachable from the entry along
// the final proved edges. The fixpoint can reach a block through an edge
// that an earlier, smaller state left open and the final state proves
// never taken (a Div or Mod whose divisor is the zero-initialized register
// on the first visit, say). Such a block has no concrete execution, so it
// loses its entry state and its branch proof; liveness and folded branches
// then agree, which is what the static pruning that reads them relies on.
func (fr *FuncRanges) dropUnprovedReach() {
	n := len(fr.Entry)
	if n == 0 {
		return
	}
	reach := make([]bool, n)
	reach[0] = true
	work := []int{0}
	visit := func(to int) {
		if !reach[to] && fr.Entry[to] != nil {
			reach[to] = true
			work = append(work, to)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		term := fr.Fn.Blocks[b].Terminator()
		switch {
		case term.Op == isa.OpJmp:
			visit(term.ThenIdx)
		case term.Op == isa.OpBr && fr.Branch[b] >= 0:
			visit(fr.Branch[b])
		case term.Op == isa.OpBr:
			visit(term.ThenIdx)
			visit(term.ElseIdx)
		default:
			// Ret, Trap and exiting syscalls have no successors.
		}
	}
	for b := range reach {
		if !reach[b] {
			fr.Entry[b] = nil
			fr.Branch[b] = -1
		}
	}
}

// transfer applies one instruction to the abstract register file. Every
// opcode is covered; anything unrecognized widens the whole file to ⊤
// rather than halting — the ROADMAP robustness rule.
func transfer(st *RegState, in *isa.Inst) {
	switch in.Op {
	case isa.OpConst:
		st[in.Dst] = Const(uint64(in.Imm))
	case isa.OpMov:
		st[in.Dst] = st[in.A]
	case isa.OpBin:
		st[in.Dst] = Bin(in.Bin, st[in.A], st[in.B])
	case isa.OpBinImm:
		st[in.Dst] = Bin(in.Bin, st[in.A], Const(uint64(in.Imm)))
	case isa.OpCmp:
		st[in.Dst] = Cmp(in.Cmp, st[in.A], st[in.B])
	case isa.OpCmpImm:
		st[in.Dst] = Cmp(in.Cmp, st[in.A], Const(uint64(in.Imm)))
	case isa.OpLoad:
		st[in.Dst] = loadVal(in.Size)
	case isa.OpStore:
		// No register effect; memory is not modeled.
	case isa.OpCall, isa.OpCallInd, isa.OpSyscall:
		// Callee return values and syscall results are unconstrained.
		st[in.Dst] = Top()
	case isa.OpJmp, isa.OpBr, isa.OpRet, isa.OpTrap:
		// Control transfer; no register effect.
	default:
		// Unknown opcode: widen every register to ⊤, never halt.
		for i := range st {
			st[i] = Top()
		}
	}
}

// loadVal bounds a memory load by its width: narrow loads zero-extend.
func loadVal(size uint8) Val {
	switch size {
	case 1, 2, 4:
		return Range(0, uint64(1)<<(8*uint(size))-1)
	default:
		return Top()
	}
}

// BranchProved implements the symex static-oracle contract: the successor
// block every execution of fn takes at the conditional branch ending block,
// if the analysis proved one.
func (r *Result) BranchProved(fn string, block int) (taken int, ok bool) {
	fr := r.Funcs[fn]
	if fr == nil || block < 0 || block >= len(fr.Branch) || fr.Branch[block] < 0 {
		return -1, false
	}
	return fr.Branch[block], true
}

// BlockEntry returns the abstract register state at (fn, block) entry, or
// nil when the block was proven unreachable (or fn is unknown).
func (r *Result) BlockEntry(fn string, block int) *RegState {
	fr := r.Funcs[fn]
	if fr == nil || block < 0 || block >= len(fr.Entry) {
		return nil
	}
	return fr.Entry[block]
}

// Unreachable reports whether the analysis proved (fn, block) unreachable
// from fn's entry for every argument vector.
func (r *Result) Unreachable(fn string, block int) bool {
	fr := r.Funcs[fn]
	return fr != nil && block >= 0 && block < len(fr.Entry) && fr.Entry[block] == nil
}
