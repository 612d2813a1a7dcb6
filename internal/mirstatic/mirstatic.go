// Package mirstatic is the static pre-analysis layer that runs before P2:
// it verifies MIR well-formedness, folds constant branches, eliminates
// statically dead blocks, computes dominator/post-dominator trees, and
// over-approximates interprocedural reachability so the pipeline can emit a
// sound "statically-unreachable" verdict without spending any P2 symbolic
// execution, and so the P2 distance maps and frontier never route through
// provably dead regions. Everything here is a conservative over-
// approximation of the concrete VM semantics used by P4: a block reported
// dead is dead on every input, and ep reported unreachable is unreachable
// even when unresolved indirect-call slots are treated as may-call-anything.
//
// Concurrency: Analyze is a pure function of an immutable linked
// isa.Program; the returned Analysis is immutable after construction and
// safe for unsynchronized concurrent use by any number of readers (it is
// shared between cfg construction and every symex worker).
package mirstatic

import (
	"fmt"

	"octopocs/internal/absint"
	"octopocs/internal/isa"
)

// FuncFacts holds the per-function results of the static analysis.
type FuncFacts struct {
	// Live reports, per block index, whether the block is reachable from
	// the function entry along edges that survive constant branch folding.
	// Dead blocks cannot execute on any input (given the VM's zero-
	// initialized register file and the folded branch conditions).
	Live []bool
	// Taken is the folded successor of each block's terminator: for a
	// conditional branch whose condition is a compile-time constant it is
	// the block index that is always taken; -1 everywhere else.
	Taken []int
	// Idom is the immediate-dominator tree of the *unfolded* static CFG:
	// Idom[entry] == entry (the root), Idom[b] == -1 for blocks that are
	// unreachable even before folding. See Dominators.
	Idom []int
	// IPdom is the immediate post-dominator tree; IPdom[b] == -1 when b's
	// only post-dominator is the virtual exit or b cannot reach an exit.
	// See PostDominators.
	IPdom []int
	// Regions are the dead regions proved by the dominator argument: for
	// each folded branch, the blocks dominated by the never-taken
	// successor. Each region is a set of block indices, all dead.
	Regions [][]int
}

// Summary aggregates whole-program counters for telemetry and reports.
type Summary struct {
	Funcs            int `json:"funcs"`
	Blocks           int `json:"blocks"`
	LiveBlocks       int `json:"live_blocks"`
	DeadBlocks       int `json:"dead_blocks"`
	FoldedBranches   int `json:"folded_branches"`
	DeadRegions      int `json:"dead_regions"`
	DeadRegionBlocks int `json:"dead_region_blocks"`
	ReachableFuncs   int `json:"reachable_funcs"`
	Warnings         int `json:"warnings"`
	// AbsintFolded counts branches the interval∧congruence layer decided
	// that constant propagation alone could not; AbsintDead counts blocks it
	// additionally proved unreachable. Both are zero when the layer is off.
	AbsintFolded int `json:"absint_folded,omitempty"`
	AbsintDead   int `json:"absint_dead,omitempty"`
}

// Analysis is the immutable result of Analyze. It implements the
// cfg.Pruner contract (DeadBlock, BranchTaken) consumed by the pruned CFG
// build and the symex frontier.
type Analysis struct {
	Prog  *isa.Program
	Funcs map[string]*FuncFacts
	// Warnings are the non-fatal verifier diagnostics (possibly-undefined
	// register reads). Fatal diagnostics make Analyze return an error.
	Warnings []Diagnostic
	// Reachable is the over-approximated set of functions reachable from
	// the program entry through live blocks, with unresolved indirect-call
	// slots widened to may-call-anything.
	Reachable map[string]bool
	// Ranges is the interval∧congruence analysis that strengthened this
	// result; nil when Analyze got none.
	Ranges  *absint.Result
	Summary Summary
}

// Analyze verifies prog and computes the full static analysis. It returns an
// error carrying the verifier diagnostics when the program is malformed;
// warnings are collected on the Analysis instead. A non-nil ranges enables
// the abstract-interpretation strengthening layer: the interval∧congruence
// value ranges of prog (from absint.Analyze, or the pipeline's cached ai:
// artifact) decide branches (and kill blocks) that the flat constant
// lattice cannot, e.g. the parity guard after an even-stride loop.
func Analyze(prog *isa.Program, ranges *absint.Result) (*Analysis, error) {
	diags := Verify(prog)
	var warns []Diagnostic
	for _, d := range diags {
		if d.Sev == SevError {
			return nil, &VerifyError{Prog: prog.Name, Diags: diags}
		}
		warns = append(warns, d)
	}
	a := &Analysis{
		Prog:      prog,
		Funcs:     make(map[string]*FuncFacts, len(prog.Funcs)),
		Warnings:  warns,
		Reachable: make(map[string]bool),
		Ranges:    ranges,
	}
	for _, f := range prog.Funcs {
		ff := analyzeFunc(f)
		if a.Ranges != nil {
			a.strengthen(f, ff)
		}
		ff.Idom = Dominators(f)
		ff.IPdom = PostDominators(f)
		ff.Regions = deadRegions(f, ff)
		a.Funcs[f.Name] = ff

		a.Summary.Funcs++
		a.Summary.Blocks += len(f.Blocks)
		for b := range f.Blocks {
			if ff.Live[b] {
				a.Summary.LiveBlocks++
			} else {
				a.Summary.DeadBlocks++
			}
			if ff.Taken[b] >= 0 {
				a.Summary.FoldedBranches++
			}
		}
		a.Summary.DeadRegions += len(ff.Regions)
		for _, r := range ff.Regions {
			a.Summary.DeadRegionBlocks += len(r)
		}
	}
	a.computeReachable()
	a.Summary.ReachableFuncs = len(a.Reachable)
	a.Summary.Warnings = len(warns)
	return a, nil
}

// strengthen merges the interval∧congruence facts into one function's
// constant-propagation facts: absint-proved branch directions fold branches
// the flat lattice left open, absint-unreachable blocks die, and liveness is
// recomputed over the surviving edges so newly folded branches kill their
// dead arms transitively. Soundness: absint proofs hold on every concrete
// execution (pinned by the differential fuzz target), so folding them is
// exactly as safe as folding a compile-time constant condition.
func (a *Analysis) strengthen(f *isa.Function, ff *FuncFacts) {
	n := len(f.Blocks)
	if n == 0 {
		return
	}
	for b := 0; b < n; b++ {
		if ff.Taken[b] >= 0 {
			continue
		}
		if taken, ok := a.Ranges.BranchProved(f.Name, b); ok {
			ff.Taken[b] = taken
			a.Summary.AbsintFolded++
		}
	}
	// Recompute liveness from the entry over folded edges, never entering a
	// block absint proved unreachable. This is exactly the edge set the
	// constant-propagation fixpoint explored, minus absint's extra kills.
	live := make([]bool, n)
	work := []int{0}
	live[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		visit := func(to int) {
			if live[to] || a.Ranges.Unreachable(f.Name, to) {
				return
			}
			live[to] = true
			work = append(work, to)
		}
		term := f.Blocks[b].Terminator()
		switch term.Op {
		case isa.OpJmp:
			visit(term.ThenIdx)
		case isa.OpBr:
			if ff.Taken[b] >= 0 {
				visit(ff.Taken[b])
			} else {
				visit(term.ThenIdx)
				visit(term.ElseIdx)
			}
		default:
			// Ret, Trap and exiting syscalls have no successors.
		}
	}
	for b := 0; b < n; b++ {
		if ff.Live[b] && !live[b] {
			a.Summary.AbsintDead++
		}
		ff.Live[b] = ff.Live[b] && live[b]
	}
}

// DeadBlock reports whether block is statically unreachable within fn.
// Unknown functions or out-of-range blocks are conservatively live.
func (a *Analysis) DeadBlock(fn string, block int) bool {
	ff := a.Funcs[fn]
	if ff == nil || block < 0 || block >= len(ff.Live) {
		return false
	}
	return !ff.Live[block]
}

// BranchTaken reports the folded successor of the conditional branch
// terminating (fn, block), when its condition is a compile-time constant.
// The second result is false when the branch is not statically decided.
func (a *Analysis) BranchTaken(fn string, block int) (int, bool) {
	ff := a.Funcs[fn]
	if ff == nil || block < 0 || block >= len(ff.Taken) || ff.Taken[block] < 0 {
		return 0, false
	}
	return ff.Taken[block], true
}

// Dominates reports whether block x dominates block y in fn's unfolded
// static CFG (every path from the function entry to y passes through x).
func (a *Analysis) Dominates(fn string, x, y int) bool {
	ff := a.Funcs[fn]
	if ff == nil {
		return false
	}
	return dominates(ff.Idom, x, y)
}

// PostDominates reports whether block x post-dominates block y in fn
// (every path from y to a function exit passes through x).
func (a *Analysis) PostDominates(fn string, x, y int) bool {
	ff := a.Funcs[fn]
	if ff == nil {
		return false
	}
	return dominates(ff.IPdom, x, y)
}

// MustPass returns the blocks every terminating execution of fn passes
// through: the post-dominators of the entry block, in entry-to-exit order.
// These are the chokepoints a bunch placement or scheduling pass can pin.
func (a *Analysis) MustPass(fn string) []int {
	ff := a.Funcs[fn]
	if ff == nil || len(ff.IPdom) == 0 {
		return nil
	}
	var out []int
	for b := ff.IPdom[0]; b >= 0; b = ff.IPdom[b] {
		out = append(out, b)
	}
	// ipdom chains run exit-ward; present them entry-to-exit.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// EpUnreachable reports whether ep is provably unreachable from the program
// entry. It is sound with respect to the concrete VM: direct calls resolve
// by name, indirect calls are widened to every non-empty function-table
// slot, and if any reachable indirect call could dispatch through an
// unresolvable (empty) slot the whole table is widened to may-call-anything
// (in which case nothing is unreachable and this returns false). Call sites
// inside statically dead blocks are discounted — the dominator regions
// prove no execution enters them.
func (a *Analysis) EpUnreachable(ep string) bool {
	return !a.Reachable[ep]
}

// computeReachable closes the over-approximated callgraph from the entry
// function over live blocks.
func (a *Analysis) computeReachable() {
	entry := a.Prog.Entry
	if a.Prog.Func(entry) == nil {
		return
	}
	work := []string{entry}
	a.Reachable[entry] = true
	widened := false
	add := func(name string) {
		if name == "" || a.Reachable[name] || a.Prog.Func(name) == nil {
			return
		}
		a.Reachable[name] = true
		work = append(work, name)
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		f := a.Prog.Func(fn)
		ff := a.Funcs[fn]
		for b, blk := range f.Blocks {
			if ff != nil && !ff.Live[b] {
				continue
			}
			for i := range blk.Insts {
				in := &blk.Insts[i]
				switch in.Op {
				case isa.OpCall:
					add(in.Callee)
				case isa.OpCallInd:
					for _, name := range a.Prog.FuncTable {
						if name == "" {
							// An unresolvable slot may call anything:
							// widen to every defined function, once.
							if !widened {
								widened = true
								for _, g := range a.Prog.Funcs {
									add(g.Name)
								}
							}
							continue
						}
						add(name)
					}
				default:
					// No other opcode transfers control to a function.
				}
			}
		}
	}
}

// String renders the summary in one line for -v output and traces.
func (s Summary) String() string {
	out := fmt.Sprintf("funcs=%d blocks=%d live=%d dead=%d folded=%d regions=%d region-blocks=%d reach-funcs=%d warns=%d",
		s.Funcs, s.Blocks, s.LiveBlocks, s.DeadBlocks, s.FoldedBranches,
		s.DeadRegions, s.DeadRegionBlocks, s.ReachableFuncs, s.Warnings)
	if s.AbsintFolded > 0 || s.AbsintDead > 0 {
		out += fmt.Sprintf(" absint-folded=%d absint-dead=%d", s.AbsintFolded, s.AbsintDead)
	}
	return out
}
