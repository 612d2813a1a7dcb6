package symex

import (
	"fmt"

	"octopocs/internal/expr"
	"octopocs/internal/isa"
	"octopocs/internal/journal"
)

// enterBlock moves the frame to a block, maintaining visit counts.
func (e *Executor) enterBlock(st *State, fr *Frame, block int) {
	fr.block = block
	fr.inst = 0
	fr.visits[block]++
}

// branch resolves an OpBr. Concrete conditions follow their value. Symbolic
// conditions are resolved by the directed policy: order the successors by
// backward-path distance (then by loop-escape preference), take the first
// feasible one, and record the corresponding constraint. When neither
// direction is feasible the state dies: loop-dead inside a revisited block,
// program-dead otherwise (paper § III-B states).
func (e *Executor) branch(st *State, fr *Frame, in *isa.Inst, directed bool) error {
	cond := reg(fr, in.A)
	if v, ok := cond.IsConst(); ok {
		if v != 0 {
			e.enterBlock(st, fr, in.ThenIdx)
		} else {
			e.enterBlock(st, fr, in.ElseIdx)
		}
		return nil
	}

	type option struct {
		block      int
		constraint *expr.Expr
	}
	opts := []option{
		{in.ThenIdx, expr.Bool(cond)},
		{in.ElseIdx, expr.Not(cond)},
	}
	if directed && e.preferElse(st, fr, in) {
		opts[0], opts[1] = opts[1], opts[0]
	}

	// A statically folded branch has exactly one direction any execution
	// can take; the other is infeasible on every path, so skipping it (and
	// never scheduling it as a backtrack alternative) cannot change the
	// outcome — it only saves the SAT checks that would refute it.
	prunedTaken := -1
	if e.cfg.Prune != nil && in.ThenIdx != in.ElseIdx {
		if t, ok := e.cfg.Prune.BranchTaken(fr.fn.Name, fr.block); ok {
			prunedTaken = t
		}
	}

	// An absint-proved branch is discharged without any solver call: the
	// proven direction is feasible (an active state's path condition is
	// invariantly satisfiable, and every concrete model of it takes the
	// proven arm), the other direction is infeasible on every path. The
	// branch constraint is still recorded, so the committed constraint set
	// — and hence the reformed PoC bytes — are identical either way.
	oracleTaken := -1
	if e.cfg.Oracle != nil && in.ThenIdx != in.ElseIdx {
		if t, ok := e.cfg.Oracle.BranchProved(fr.fn.Name, fr.block); ok {
			oracleTaken = t
			if e.cfg.Journal.Verbose() {
				e.cfg.Journal.Emit(journal.EvSymexAbsint, journal.Attrs{
					"fn": fr.fn.Name, "block": fr.block, "taken": t})
			}
		}
	}

	inLoop := fr.visits[fr.block] > 1
	for i, o := range opts {
		// θ bound: refuse to re-enter a block beyond the iteration cap.
		// This runs before the prune skip so the loop-dead/program-dead
		// classification of a dying state is identical with pruning off.
		if fr.visits[o.block] >= e.cfg.Theta {
			inLoop = true
			continue
		}
		if prunedTaken >= 0 && o.block != prunedTaken {
			e.stat.PrunedBranches++
			continue
		}
		var ok bool
		if oracleTaken >= 0 {
			e.stat.SatDischargedStatic++
			ok = o.block == oracleTaken
		} else {
			var err error
			ok, err = e.feasible(st, o.constraint)
			if err != nil {
				return err
			}
		}
		if ok {
			// Leave the untried direction (if any) pending in the
			// frontier before this path commits.
			if directed && i == 0 &&
				!(prunedTaken >= 0 && opts[1].block != prunedTaken) &&
				!(oracleTaken >= 0 && opts[1].block != oracleTaken) &&
				fr.visits[opts[1].block] < e.cfg.Theta {
				e.emit(st, []*expr.Expr{opts[1].constraint}, []int64{e.blockScore(fr, opts[1].block)})
			}
			if fr.visits[o.block] > 0 {
				e.stat.LoopStates++ // the paper's transient loop state
			}
			st.AddConstraint(o.constraint)
			e.enterBlock(st, fr, o.block)
			return nil
		}
	}
	if inLoop {
		st.die(KindLoopDead, fmt.Sprintf("no feasible loop exit at %s within θ=%d", st.loc(), e.cfg.Theta))
	} else {
		st.die(KindProgramDead, fmt.Sprintf("no feasible branch at %s", st.loc()))
	}
	return nil
}

// preferElse reports whether the else successor should be tried first,
// according to the distance maps: smaller distance to the next objective
// wins; ties break toward the less-visited block (escaping loops), then
// toward the then branch.
func (e *Executor) preferElse(st *State, fr *Frame, in *isa.Inst) bool {
	dThen := e.blockScore(fr, in.ThenIdx)
	dElse := e.blockScore(fr, in.ElseIdx)
	if dElse != dThen {
		return dElse < dThen
	}
	return fr.visits[in.ElseIdx] < fr.visits[in.ThenIdx]
}

// blockScore ranks a successor block. Functions that can still descend
// toward the target use the to-ep map; others head for their return so the
// caller can continue. Unreachable blocks rank last.
func (e *Executor) blockScore(fr *Frame, block int) int64 {
	d := e.cfg.Distances
	fn := fr.fn.Name
	if fn != e.cfg.Target && d.CanReach(fn) {
		if v, ok := d.ToEp(fn, block); ok {
			return v
		}
		return 1 << 62
	}
	if v, ok := d.ToRet(fn, block); ok {
		return v
	}
	return 1 << 62
}

// call handles a direct call: if the callee is the objective, the visitor
// runs first and may stop the whole execution.
func (e *Executor) call(st *State, fr *Frame, in *isa.Inst, callee *isa.Function, visitor Visitor) (bool, error) {
	if callee == nil {
		return false, fmt.Errorf("symex: call to unknown function %q", in.Callee)
	}
	args := make([]*expr.Expr, len(in.Args))
	for i, r := range in.Args {
		args[i] = reg(fr, r)
	}
	if callee.Name == e.cfg.Target && visitor != nil {
		entry := EpEntry{
			Seq:     len(st.entries) + 1,
			Args:    args,
			FilePos: st.FilePos(),
		}
		st.entries = append(st.entries, entry)
		decision, err := visitor(entry, st)
		if err != nil {
			return false, err
		}
		switch decision {
		case Stop:
			return true, nil
		case Infeasible:
			st.die(KindInfeasible, fmt.Sprintf("objective placement infeasible at entry %d", entry.Seq))
			return false, nil
		}
	}
	nf := &Frame{fn: callee, retDst: in.Dst, visits: map[int]int{0: 1}}
	for i, a := range args {
		if i < isa.NumRegs {
			nf.regs[i] = a
		}
	}
	st.frames = append(st.frames, nf)
	return false, nil
}

// callIndirect resolves an indirect call. A symbolic index is directed: the
// executor picks, among feasible table slots, the target that minimizes the
// callgraph distance to the objective, and pins the index.
func (e *Executor) callIndirect(st *State, fr *Frame, in *isa.Inst, visitor Visitor, directed bool) (bool, error) {
	idx := reg(fr, in.A)
	table := e.prog.FuncTable

	resolve := func(v uint64) *isa.Function {
		if v >= uint64(len(table)) || table[v] == "" {
			return nil
		}
		return e.prog.Func(table[v])
	}

	if v, ok := idx.IsConst(); ok {
		callee := resolve(v)
		if callee == nil {
			st.die(KindCrashed, fmt.Sprintf("bad indirect call index %d", v))
			return false, nil
		}
		if e.onResolve != nil {
			e.onResolve(st.loc(), callee.Name)
		}
		return e.call(st, fr, in, callee, visitor)
	}

	// Symbolic index: enumerate candidate slots, ranked by callgraph
	// distance to the objective when directed.
	type cand struct {
		v    uint64
		rank int64
	}
	var cands []cand
	for v := range table {
		callee := resolve(uint64(v))
		if callee == nil {
			continue
		}
		rank := int64(1 << 30)
		if directed {
			if fd, ok := e.cfg.Distances.FuncDist(callee.Name); ok {
				rank = int64(fd)
			}
		}
		cands = append(cands, cand{uint64(v), rank})
	}
	// Stable selection: sort by (rank, v).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].rank < cands[j-1].rank ||
			(cands[j].rank == cands[j-1].rank && cands[j].v < cands[j-1].v)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for i, c := range cands {
		pin := expr.Bin(expr.OpEq, idx, expr.Const(c.v))
		ok, err := e.feasible(st, pin)
		if err != nil {
			return false, err
		}
		if ok {
			if directed && i+1 < len(cands) {
				alts := make([]*expr.Expr, 0, len(cands)-i-1)
				dists := make([]int64, 0, len(cands)-i-1)
				for _, rest := range cands[i+1:] {
					alts = append(alts, expr.Bin(expr.OpEq, idx, expr.Const(rest.v)))
					dists = append(dists, rest.rank)
				}
				e.emit(st, alts, dists)
			}
			st.AddConstraint(pin)
			callee := resolve(c.v)
			if e.onResolve != nil {
				e.onResolve(st.loc(), callee.Name)
			}
			return e.call(st, fr, in, callee, visitor)
		}
	}
	st.die(KindProgramDead, fmt.Sprintf("no feasible indirect-call target at %s", st.loc()))
	return false, nil
}

// ret pops the top frame; returning from the entry function exits.
func (e *Executor) ret(st *State, fr *Frame, val *expr.Expr) {
	st.frames = st.frames[:len(st.frames)-1]
	if len(st.frames) == 0 {
		st.die(KindExited, "returned from entry")
		return
	}
	caller := st.top()
	caller.regs[fr.retDst] = val
	caller.inst++
}

// syscall interprets one syscall symbolically. Sizes, offsets and addresses
// are concretized; file reads materialize fresh input symbols. A dead state
// (unsatisfiable concretization) returns early with no error so the caller
// can backtrack.
func (e *Executor) syscall(st *State, fr *Frame, in *isa.Inst) error {
	argE := func(i int) *expr.Expr { return reg(fr, in.Args[i]) }
	argC := func(i int) (uint64, bool, error) { return e.concretize(st, argE(i)) }

	switch in.Sys {
	case isa.SysOpen:
		st.filePos = append(st.filePos, 0)
		fd := uint64(len(st.filePos) + 2)
		fr.regs[in.Dst] = expr.Const(fd)

	case isa.SysRead:
		fd, ok, err := argC(0)
		if err != nil || !ok {
			return err
		}
		buf, ok, err := argC(1)
		if err != nil || !ok {
			return err
		}
		n, ok, err := argC(2)
		if err != nil || !ok {
			return err
		}
		fi := int(fd) - 3
		if fi < 0 || fi >= len(st.filePos) {
			fr.regs[in.Dst] = expr.Const(^uint64(0))
			break
		}
		st.lastReadFD = fi
		pos := st.filePos[fi]
		remain := int64(e.cfg.InputSize) - pos
		if remain < 0 {
			remain = 0
		}
		count := int64(n)
		if count > remain {
			count = remain
		}
		if count > 0 {
			bytes := make([]*expr.Expr, count)
			for i := range bytes {
				bytes[i] = expr.Sym(int(pos) + i)
			}
			if f := st.mem.setBytes(buf, bytes); f != nil {
				st.die(KindCrashed, f.String())
				return nil
			}
			st.filePos[fi] += count
		}
		fr.regs[in.Dst] = expr.Const(uint64(count))

	case isa.SysSeek:
		fd, ok, err := argC(0)
		if err != nil || !ok {
			return err
		}
		off, ok, err := argC(1)
		if err != nil || !ok {
			return err
		}
		fi := int(fd) - 3
		if fi < 0 || fi >= len(st.filePos) {
			fr.regs[in.Dst] = expr.Const(^uint64(0))
			break
		}
		pos := int64(off)
		if pos < 0 {
			pos = 0
		}
		if pos > int64(e.cfg.InputSize) {
			pos = int64(e.cfg.InputSize)
		}
		st.filePos[fi] = pos
		st.lastReadFD = fi
		fr.regs[in.Dst] = expr.Const(uint64(pos))

	case isa.SysTell:
		fd, ok, err := argC(0)
		if err != nil || !ok {
			return err
		}
		fi := int(fd) - 3
		if fi < 0 || fi >= len(st.filePos) {
			fr.regs[in.Dst] = expr.Const(^uint64(0))
			break
		}
		fr.regs[in.Dst] = expr.Const(uint64(st.filePos[fi]))

	case isa.SysSize:
		fr.regs[in.Dst] = expr.Const(uint64(e.cfg.InputSize))

	case isa.SysMMap:
		base := st.mem.mapSymbolicFile(e.cfg.InputSize)
		fr.regs[in.Dst] = expr.Const(base)

	case isa.SysAlloc:
		n, ok, err := argC(0)
		if err != nil || !ok {
			return err
		}
		fr.regs[in.Dst] = expr.Const(st.mem.alloc(n))

	case isa.SysFree:
		addr, ok, err := argC(0)
		if err != nil || !ok {
			return err
		}
		if f := st.mem.free(addr); f != nil {
			st.die(KindCrashed, f.String())
			return nil
		}
		fr.regs[in.Dst] = expr.Zero

	case isa.SysWrite:
		// Output is irrelevant to path feasibility; validate nothing.
		fr.regs[in.Dst] = argE(1)

	case isa.SysExit:
		st.die(KindExited, "sys exit")
		return nil

	case isa.SysArgRead:
		buf, ok, err := argC(0)
		if err != nil || !ok {
			return err
		}
		n, ok, err := argC(1)
		if err != nil || !ok {
			return err
		}
		remain := int64(e.cfg.InputSize) - st.argPos
		if remain < 0 {
			remain = 0
		}
		count := int64(n)
		if count > remain {
			count = remain
		}
		if count > 0 {
			bytes := make([]*expr.Expr, count)
			for i := range bytes {
				bytes[i] = expr.Sym(int(st.argPos) + i)
			}
			if f := st.mem.setBytes(buf, bytes); f != nil {
				st.die(KindCrashed, f.String())
				return nil
			}
			st.argPos += count
		}
		st.lastReadFD = argChannel
		fr.regs[in.Dst] = expr.Const(uint64(count))

	case isa.SysArgLen:
		fr.regs[in.Dst] = expr.Const(uint64(e.cfg.InputSize))

	default:
		return fmt.Errorf("symex: unknown syscall %d", in.Sys)
	}
	return nil
}
