// Package mirstatic is the static pre-analysis layer that runs before P2:
// it checks T with isa's Check, collects read-before-write register reads
// as warnings, folds the branches and eliminates the dead blocks that the
// interval∧congruence value ranges of internal/absint prove, computes
// dominator/post-dominator trees, and over-approximates interprocedural
// reachability so the pipeline can emit a sound
// "statically-unreachable" verdict without spending any P2 symbolic
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
	// Live reports, per block index, whether the value-range analysis
	// reached the block from the function entry along proved edges. Dead
	// blocks cannot execute on any input.
	Live []bool
	// Taken is the folded successor of each block's terminator: for a
	// conditional branch whose direction the value ranges prove it is the
	// block index that is always taken; -1 everywhere else.
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
}

// Analysis is the immutable result of Analyze. It implements the
// cfg.Pruner contract (DeadBlock, BranchTaken) consumed by the pruned CFG
// build and the symex frontier.
type Analysis struct {
	Prog  *isa.Program
	Funcs map[string]*FuncFacts
	// Warnings are the register reads that may happen before any write.
	// They are legal (such reads yield 0), so they never fail Analyze.
	Warnings []Diagnostic
	// Reachable is the over-approximated set of functions reachable from
	// the program entry through live blocks, with unresolved indirect-call
	// slots widened to may-call-anything.
	Reachable map[string]bool
	Summary   Summary
}

// Analyze checks prog (isa.Program.Check) and computes the full static
// analysis. It returns an error naming the program malformed when the check
// fails; read-before-write warnings are collected on the Analysis instead.
// prog must already be linked: Analyze only reads it. ranges is the
// interval∧congruence analysis of prog (the pipeline's cached ai: artifact,
// say) and the only source of the liveness and folded-branch facts; nil
// makes Analyze run absint.Analyze(prog) itself.
func Analyze(prog *isa.Program, ranges *absint.Result) (*Analysis, error) {
	if err := prog.Check(); err != nil {
		return nil, fmt.Errorf("mirstatic: program %s is malformed: %w", prog.Name, err)
	}
	var warns []Diagnostic
	for _, f := range prog.Funcs {
		warns = append(warns, verifyDefiniteAssignment(f)...)
	}
	a := &Analysis{
		Prog:      prog,
		Funcs:     make(map[string]*FuncFacts, len(prog.Funcs)),
		Warnings:  warns,
		Reachable: make(map[string]bool),
	}
	if ranges == nil {
		ranges = absint.Analyze(prog)
	}
	for _, f := range prog.Funcs {
		ff := factsOf(f, ranges)
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

// factsOf reads one function's liveness and folded branches off the value
// ranges: a block is live when absint reached it along proved edges, and a
// conditional branch is folded when absint proved its successor.
func factsOf(f *isa.Function, ranges *absint.Result) *FuncFacts {
	ff := &FuncFacts{
		Live:  make([]bool, len(f.Blocks)),
		Taken: make([]int, len(f.Blocks)),
	}
	for b := range f.Blocks {
		ff.Live[b] = !ranges.Unreachable(f.Name, b)
		ff.Taken[b] = -1
		if taken, ok := ranges.BranchProved(f.Name, b); ok {
			ff.Taken[b] = taken
		}
	}
	return ff
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
// terminating (fn, block), when the value ranges prove its direction.
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
	return fmt.Sprintf("funcs=%d blocks=%d live=%d dead=%d folded=%d regions=%d region-blocks=%d reach-funcs=%d warns=%d",
		s.Funcs, s.Blocks, s.LiveBlocks, s.DeadBlocks, s.FoldedBranches,
		s.DeadRegions, s.DeadRegionBlocks, s.ReachableFuncs, s.Warnings)
}
