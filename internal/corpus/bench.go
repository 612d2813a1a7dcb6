package corpus

import (
	"fmt"

	"octopocs/internal/asm"
	"octopocs/internal/isa"
)

// SymexBenchSpec is one workload of the directed-exploration benchmark
// (octoledger's symex-frontier workload). Unlike the Table II pairs, these
// programs are built so directed symbolic execution must exhaust an
// exponential frontier: every diamond forks two feasible successors and the
// final gate guarding the target is unsatisfiable, so no path ever commits a
// success that would let the minimal-path protocol prune its siblings.
type SymexBenchSpec struct {
	// Name identifies the workload in octoledger's symex-frontier results.
	Name string
	// Prog is the benchmark binary; Target is the function the directed
	// run steers toward (never actually reachable).
	Prog   *isa.Program
	Target string
	// InputSize is the symbolic input width in bytes.
	InputSize int
	// Leaves is the number of terminal paths the frontier must retire
	// (2^depth); useful for sanity-checking a run explored everything.
	Leaves int
}

// SymexBench returns the parallel symbolic-execution workloads, cheapest
// first. They are intentionally NOT part of All(): they model search-space
// shape, not vulnerability propagation, and have no S/T/poc triple.
func SymexBench() []*SymexBenchSpec {
	return SymexBenchAt(12, 8)
}

// SymexBenchAt returns the SymexBench workloads at the given diamond
// depths: bitfan at bitfanDepth, mixmul at mixmulDepth. Unit tests use
// small depths.
func SymexBenchAt(bitfanDepth, mixmulDepth int) []*SymexBenchSpec {
	return []*SymexBenchSpec{
		bitfanSpec(bitfanDepth),
		mixmulSpec(mixmulDepth),
	}
}

// bitfanSpec builds a depth-deep diamond chain over single input bits:
// diamond i branches on bit i%8 of input byte i/8. Both directions of every
// diamond are feasible and mutually independent, so the search tree has
// exactly 2^depth leaves. Each feasibility check involves only one-symbol
// constraints — this workload measures frontier scheduling overhead with
// near-free SAT checks.
func bitfanSpec(depth int) *SymexBenchSpec {
	nbytes := (depth + 7) / 8
	b := asm.NewBuilder(fmt.Sprintf("bitfan-d%d", depth))
	ep := b.Function("ep", 0)
	ep.RetI(0)

	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(int64(nbytes)))
	f.Sys(isa.SysRead, fd, buf, f.Const(int64(nbytes)))
	acc := f.VarI(0)
	for i := 0; i < depth; i++ {
		bit := f.AndI(f.ShrI(f.Load(1, buf, int64(i/8)), int64(i%8)), 1)
		i := i
		f.IfElse(f.EqI(bit, 1),
			func() { f.Assign(acc, f.AddI(acc, int64(2*i+1))) },
			func() { f.Assign(acc, f.AddI(acc, int64(2*i+2))) })
	}
	// Unsatisfiable gate the solver must actually refute (a single byte
	// masked to one bit can never exceed 1): the directed run keeps
	// steering toward ep and retires every one of the 2^depth leaves.
	f.If(f.GtI(f.AndI(f.Load(1, buf, 0), 1), 1), func() { f.Call("ep") })
	f.Exit(0)
	b.Entry("main")
	return &SymexBenchSpec{
		Name:      fmt.Sprintf("bitfan-d%d", depth),
		Prog:      b.MustBuild(),
		Target:    "ep",
		InputSize: nbytes,
		Leaves:    1 << depth,
	}
}

// mixmulSpec builds a depth-deep diamond chain whose conditions are
// two-symbol multiplicative congruences: diamond i reads its own byte pair
// (x, y) and branches on (x*17 + y*31) & 63 == m_i. Filtering one such
// equality over two full byte domains costs 16,640 evaluations (each value
// of either symbol scans the other's domain up to its first support) and
// its negation 520. The pairs are disjoint, so a feasibility check's
// independent slice holds only the constraints on the bytes its branch
// reads, and a diamond's check filters its one pair — this workload measures how the frontier scales
// when every check is a real two-symbol solve, and how much the memoized
// verdict cache recovers on re-exploration.
func mixmulSpec(depth int) *SymexBenchSpec {
	nbytes := 2 * depth
	b := asm.NewBuilder(fmt.Sprintf("mixmul-d%d", depth))
	ep := b.Function("ep", 0)
	ep.RetI(0)

	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(int64(nbytes)))
	f.Sys(isa.SysRead, fd, buf, f.Const(int64(nbytes)))
	acc := f.VarI(0)
	for i := 0; i < depth; i++ {
		x := f.Load(1, buf, int64(2*i))
		y := f.Load(1, buf, int64(2*i+1))
		mix := f.AndI(f.Add(f.MulI(x, 17), f.MulI(y, 31)), 63)
		i := i
		f.IfElse(f.EqI(mix, int64((i*11+3)&63)),
			func() { f.Assign(acc, f.AddI(acc, int64(2*i+1))) },
			func() { f.Assign(acc, f.AddI(acc, int64(2*i+2))) })
	}
	f.If(f.GtI(f.AndI(f.Load(1, buf, 0), 1), 1), func() { f.Call("ep") })
	f.Exit(0)
	b.Entry("main")
	return &SymexBenchSpec{
		Name:      fmt.Sprintf("mixmul-d%d", depth),
		Prog:      b.MustBuild(),
		Target:    "ep",
		InputSize: nbytes,
		Leaves:    1 << depth,
	}
}
