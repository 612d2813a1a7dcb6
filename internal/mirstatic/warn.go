package mirstatic

import (
	"fmt"

	"octopocs/internal/isa"
)

// Diagnostic is one read-before-write warning, anchored to a program point.
type Diagnostic struct {
	Loc isa.Loc
	Msg string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Loc, d.Msg)
}

// verifyDefiniteAssignment runs a forward must-be-assigned dataflow over
// the static CFG of a checked function and warns about register reads that
// can execute before any write. The VM defines such reads to yield zero, so
// they are warnings, not errors; they exist to catch operand typos in
// hand-written MIR.
func verifyDefiniteAssignment(f *isa.Function) []Diagnostic {
	// in[b] = bitset of registers definitely written on every path to b.
	words := (isa.NumRegs + 63) / 64
	in := make([][]uint64, len(f.Blocks))
	in[0] = make([]uint64, words)
	for r := 0; r < f.NParams; r++ {
		in[0][r/64] |= 1 << (r % 64)
	}
	work := []int{0}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := make([]uint64, words)
		copy(out, in[b])
		for i := range f.Blocks[b].Insts {
			if d, ok := instDst(&f.Blocks[b].Insts[i]); ok {
				out[int(d)/64] |= 1 << (int(d) % 64)
			}
		}
		for _, s := range staticSuccs(f, b) {
			if in[s] == nil {
				cp := make([]uint64, words)
				copy(cp, out)
				in[s] = cp
				work = append(work, s)
				continue
			}
			changed := false
			for w := 0; w < words; w++ {
				m := in[s][w] & out[w]
				if m != in[s][w] {
					in[s][w] = m
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}

	var ds []Diagnostic
	for b := range f.Blocks {
		if in[b] == nil {
			continue // unreachable: nothing to report
		}
		def := make([]uint64, words)
		copy(def, in[b])
		has := func(r isa.Reg) bool {
			return def[int(r)/64]&(1<<(int(r)%64)) != 0
		}
		for i := range f.Blocks[b].Insts {
			inst := &f.Blocks[b].Insts[i]
			for _, r := range instSrcs(inst) {
				if !has(r) {
					ds = append(ds, Diagnostic{
						Loc: isa.Loc{Func: f.Name, Block: b, Inst: i},
						Msg: fmt.Sprintf("r%d may be read before it is written (reads as 0)", r),
					})
				}
			}
			if d, ok := instDst(inst); ok {
				def[int(d)/64] |= 1 << (int(d) % 64)
			}
		}
	}
	return ds
}

// instDst reports the register an instruction writes, if any.
func instDst(in *isa.Inst) (isa.Reg, bool) {
	switch in.Op {
	case isa.OpConst, isa.OpMov, isa.OpBin, isa.OpBinImm, isa.OpCmp,
		isa.OpCmpImm, isa.OpLoad, isa.OpCall, isa.OpCallInd:
		return in.Dst, true
	case isa.OpSyscall:
		if in.Sys == isa.SysExit {
			return 0, false
		}
		return in.Dst, true
	default:
		// Store and control transfers write no register.
		return 0, false
	}
}

// instSrcs lists the registers an instruction reads.
func instSrcs(in *isa.Inst) []isa.Reg {
	var out []isa.Reg
	switch in.Op {
	case isa.OpMov, isa.OpBinImm, isa.OpCmpImm, isa.OpLoad, isa.OpRet, isa.OpBr:
		out = append(out, in.A)
	case isa.OpBin, isa.OpCmp, isa.OpStore:
		out = append(out, in.A, in.B)
	case isa.OpCallInd:
		out = append(out, in.A)
	default:
		// Const, Jmp, Call, Syscall and Trap read only Args (if anything).
	}
	out = append(out, in.Args...)
	return out
}
