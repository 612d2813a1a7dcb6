package absint_test

// FuzzAbsintVsConcrete is the differential soundness check for the
// interval∧congruence domain: decode the fuzz bytes into a random (but
// well-formed) MIR program, run the abstract interpretation once, then run
// the concrete VM on a random input and assert that every register value
// observed at every block entry lies inside the computed abstraction, that
// no concretely-entered block was proven unreachable, and that every
// executed conditional branch with a proved successor went to it. These
// are exactly the facts the static pruning of internal/mirstatic folds, so
// this target guards all of it.

import (
	"testing"

	"octopocs/internal/absint"
	"octopocs/internal/asm"
	"octopocs/internal/isa"
	"octopocs/internal/vm"
)

// genCursor deals deterministic bytes out of the fuzz payload, zero-padded
// past the end so every payload decodes to some program.
type genCursor struct {
	data []byte
	pos  int
}

func (g *genCursor) next() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *genCursor) u16() uint16 {
	return uint16(g.next()) | uint16(g.next())<<8
}

// buildFuzzProgram grows one function from the payload: straight-line
// arithmetic and comparisons over a rolling register pool, bounded loops
// with data-dependent strides (the congruence-domain stressor), nested
// conditionals, allocation/store/load round trips, and syscalls. Register
// pressure is capped well under isa.NumRegs so the builder never errors.
func buildFuzzProgram(data []byte) *isa.Program {
	g := &genCursor{data: data}
	b := asm.NewBuilder("fuzz")
	b.Entry("main")
	f := b.Function("main", 0)

	allocs := 0
	regs := []isa.Reg{f.Const(int64(int8(g.next())))}
	allocs++
	pick := func() isa.Reg { return regs[int(g.next())%len(regs)] }
	push := func(r isa.Reg) {
		regs = append(regs, r)
	}

	var emit func(depth int, budget int)
	emit = func(depth int, budget int) {
		for op := 0; op < budget; op++ {
			if allocs > 140 {
				return
			}
			switch g.next() % 9 {
			case 0:
				push(f.Const(int64(int16(g.u16()))))
				allocs++
			case 1:
				push(f.Bin(isa.BinOp(g.next()%10+1), pick(), pick()))
				allocs++
			case 2:
				push(f.BinI(isa.BinOp(g.next()%10+1), pick(), int64(int8(g.next()))))
				allocs++
			case 3:
				push(f.Cmp(isa.CmpOp(g.next()%8+1), pick(), pick()))
				allocs++
			case 4:
				push(f.CmpI(isa.CmpOp(g.next()%8+1), pick(), int64(g.next())))
				allocs++
			case 5:
				if depth < 2 {
					inner := int(g.next() % 3)
					f.If(pick(), func() { emit(depth+1, inner) })
				}
			case 6:
				if depth < 2 {
					i := f.VarI(int64(g.next() % 4))
					lim := int64(g.next() % 24)
					stride := int64(g.next()%4 + 1)
					inner := int(g.next() % 2)
					allocs += 4
					f.While(func() isa.Reg { return f.CmpI(isa.Lt, i, lim) }, func() {
						emit(depth+1, inner)
						f.Assign(i, f.AddI(i, stride))
					})
					push(i)
				}
			case 7:
				push(f.Sys(isa.SysArgLen))
				allocs++
			case 8:
				size := uint8(1) << (g.next() % 3) // 1, 2 or 4 bytes
				addr := f.Sys(isa.SysAlloc, f.Const(64))
				f.Store(size, addr, int64(g.next()%32), pick())
				push(f.Load(size, addr, int64(g.next()%32)))
				allocs += 3
			}
		}
	}
	emit(0, 24)
	f.RetI(0)
	return b.MustBuild()
}

// parityGuardSeed decodes to an even-stride loop (i from 0 by 2 while
// i < 20) followed by a guard on (i & 1) != 0 around a syscall: a flat
// constant lattice cannot decide the guard, the congruence domain proves it
// false.
var parityGuardSeed = []byte{
	3,              // r0 = const 3
	6, 0, 20, 1, 0, // loop: i = 0, limit 20, stride 2, empty body
	2, 5, 1, 1, // a = i & 1
	4, 1, 2, 0, // c = a != 0
	5, 1, 3, 7, // if c { sys arglen }
}

// TestParityGuardSeed pins what FuzzAbsintVsConcrete's parity-guard seed
// decodes to: a branch the analysis proves, guarding a block it proves
// unreachable.
func TestParityGuardSeed(t *testing.T) {
	res := absint.Analyze(buildFuzzProgram(parityGuardSeed))
	if res.Summary.ProvedBranches == 0 || res.Summary.Unreachable == 0 {
		t.Fatalf("parity guard not proved: %v", res.Summary)
	}
}

func FuzzAbsintVsConcrete(f *testing.F) {
	// Seed corpus: arithmetic chains, an even-stride loop, nested control
	// flow, memory round trips, a payload that exercises every opcode class
	// at least once, and the parity guard (see parityGuardSeed).
	f.Add([]byte{7, 0, 10, 0, 1, 1, 2, 3}, []byte{1, 2, 3, 4})
	f.Add([]byte{9, 6, 0, 20, 2, 1, 2, 5, 1, 3, 3, 7}, []byte{0xff, 0x00})
	f.Add([]byte{3, 5, 2, 1, 4, 9, 5, 1, 6, 0, 16, 2, 0}, []byte{42})
	f.Add([]byte{11, 8, 0, 8, 1, 8, 2, 5, 8, 1, 7, 4, 4}, []byte{})
	f.Add([]byte{2, 1, 9, 2, 2, 7, 1, 4, 2, 3, 6, 1, 30, 3, 1, 0, 8, 0}, []byte{9, 9})
	f.Add(parityGuardSeed, []byte{1})

	f.Fuzz(func(t *testing.T, progData, input []byte) {
		if len(progData) > 1<<10 || len(input) > 1<<10 {
			t.Skip("oversized payload")
		}
		prog := buildFuzzProgram(progData)
		res := absint.Analyze(prog)

		// proved is the successor the last executed conditional branch must
		// take, checked at the next instruction (the successor's first; a
		// branch transfers control within its frame). -1: nothing pending.
		proved, from := -1, isa.Loc{}
		hooks := &vm.Hooks{
			OnInst: func(loc isa.Loc, _ uint64, in *isa.Inst) {
				if proved >= 0 && (loc.Func != from.Func || loc.Block != proved) {
					t.Errorf("branch at %s went to %s/%d; the analysis proved it goes to %d",
						from, loc.Func, loc.Block, proved)
				}
				proved = -1
				if in.Op == isa.OpBr {
					if taken, ok := res.BranchProved(loc.Func, loc.Block); ok {
						proved, from = taken, loc
					}
				}
			},
			OnBlockRegs: func(fn string, block int, regs []uint64) {
				st := res.BlockEntry(fn, block)
				if st == nil {
					t.Errorf("concrete execution entered %s/%d, which the analysis proved unreachable", fn, block)
					return
				}
				for i, v := range regs {
					if !st[i].Contains(v) {
						t.Errorf("%s/%d r%d: concrete value %d outside abstraction %v",
							fn, block, i, v, st[i])
					}
				}
			},
		}
		vm.New(prog, vm.Config{Input: input, MaxSteps: 4000, Hooks: hooks}).Run()
	})
}
