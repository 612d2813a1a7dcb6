// Package corpus defines the 15 synthetic S/T vulnerable software pairs
// that mirror Table II of the OCTOPOCS paper row by row. Each pair couples
// two MIR binaries sharing a vulnerable library ℓ, an input file format per
// binary, and a PoC that crashes S — reproducing the propagation mechanism
// of its real-world counterpart (same-format reuse, format bridging,
// hard-coded parameters, inserted patches, or unresolvable dispatch).
//
// The binaries are deliberately written like small C programs: magic-number
// checks, length-prefixed records, skip loops, dispatch tables. Every
// vulnerability manifests through ordinary memory-safety violations (or a
// hang for the CWE-835 case), never through artificial "crash here"
// markers in ℓ. The pairs are the end-to-end inputs of the P1–P4 pipeline;
// bench.go additionally defines frontier-shaped workloads for the P2
// parallel-exploration benchmark.
//
// Concurrency: constructors rebuild programs on every call and return
// exclusively owned values; nothing in this package holds shared mutable
// state, so callers may verify different PairSpecs concurrently.
package corpus

import (
	"fmt"

	"octopocs/internal/asm"
	"octopocs/internal/core"
	"octopocs/internal/isa"
)

// PairSpec couples a verification task with its Table II metadata.
type PairSpec struct {
	// Idx is the Table II row number (1-15).
	Idx int
	// SName/SVersion and TName/TVersion give the software identities of
	// the real-world pair this row mirrors.
	SName    string
	SVersion string
	TName    string
	TVersion string
	// CVE is the vulnerability identifier of the real pair.
	CVE string
	// CWE is the weakness class ("CWE-119", "CWE-190", "CWE-835", or
	// "No-CWE" following the paper's table).
	CWE string
	// ExpectType is the verdict class the paper reports for this row.
	ExpectType core.ResultType
	// ExpectPoC reports whether the paper's poc' column is O for this row.
	ExpectPoC bool
	// ExpectReason is the symex failure reason expected with the hybrid
	// fallback off; only set for the hybrid pairs (Idx 18-21), whose
	// ExpectType/ExpectPoC describe that same fallback-off run.
	ExpectReason core.Reason
	// ExpectRescue reports whether the hybrid fallback is expected to
	// upgrade this pair to triggered-by-fuzzing.
	ExpectRescue bool
	// Pair is the verification task itself.
	Pair *core.Pair
}

// Label renders "S->T" for reports.
func (s *PairSpec) Label() string {
	return fmt.Sprintf("%s->%s", s.SName, s.TName)
}

// All returns the 15 pairs in Table II order. Programs are rebuilt on each
// call, so callers may mutate them freely.
func All() []*PairSpec {
	return []*PairSpec{
		jpegcLibgdx(),       // 1
		jpegcZxing(),        // 2
		pdfscanXpdf(),       // 3
		avdecFfmpeg(),       // 4
		tjdecMozjpeg(),      // 5
		pdfboxPdfinfo(),     // 6
		j2kOpjDump(),        // 7
		j2kMupdf(),          // 8
		gifreadArtifical(),  // 9
		tiffOpjCompress(),   // 10
		tiffLibsdl(),        // 11
		tiffLibgdiplus(),    // 12
		j2kOpjDumpPatched(), // 13
		pdfboxXpdfPatched(), // 14
		pdfnumPoppler(),     // 15
	}
}

// Rows returns all 21 corpus rows in row order: Table II (1-15), the
// static-prune pairs (16-17) and the hybrid-fallback pairs (18-21).
// Programs are rebuilt on each call, so callers may mutate them freely.
func Rows() []*PairSpec {
	return append(append(All(), StaticSet()...), HybridSet()...)
}

// ByIdx returns the pair with the given row number — a Table II row (1-15),
// a static-prune pair (16-17), or a hybrid-fallback pair (18-21) — or nil.
func ByIdx(idx int) *PairSpec {
	for _, s := range Rows() {
		if s.Idx == idx {
			return s
		}
	}
	return nil
}

// --- shared builder helpers -------------------------------------------------

// expectMagic emits code that reads len(magic) bytes from fd and exits(1)
// unless they equal magic.
func expectMagic(f *asm.Fn, fd isa.Reg, magic string) {
	buf := f.Sys(isa.SysAlloc, f.Const(int64(len(magic))))
	f.Sys(isa.SysRead, fd, buf, f.Const(int64(len(magic))))
	for i := 0; i < len(magic); i++ {
		f.If(f.NeI(f.Load(1, buf, int64(i)), int64(magic[i])), func() {
			f.Exit(1)
		})
	}
}

// readU8 emits a single-byte read and returns the value register. At EOF
// the buffer byte keeps its previous content; corpus parsers that care
// check the returned count themselves.
func readU8(f *asm.Fn, fd isa.Reg) isa.Reg {
	buf := f.Sys(isa.SysAlloc, f.Const(1))
	f.Sys(isa.SysRead, fd, buf, f.Const(1))
	return f.Load(1, buf, 0)
}

// readU16LE reads two bytes little-endian.
func readU16LE(f *asm.Fn, fd isa.Reg) isa.Reg {
	buf := f.Sys(isa.SysAlloc, f.Const(2))
	f.Sys(isa.SysRead, fd, buf, f.Const(2))
	return f.Load(2, buf, 0)
}

// skipBytes advances the file position by n (clamped by the VM).
func skipBytes(f *asm.Fn, fd, n isa.Reg) {
	pos := f.Sys(isa.SysTell, fd)
	f.Sys(isa.SysSeek, fd, f.Add(pos, n))
}

// flagPreamble emits k one-byte option-flag reads, each selecting between
// two continuing paths. For concrete execution this is cheap linear code;
// for undirected symbolic exploration it is a 2^k state blowup — the
// ingredient that makes the naive baseline of Table IV exhaust memory on
// the larger binaries.
func flagPreamble(f *asm.Fn, fd isa.Reg, k int) {
	mode := f.VarI(0)
	for i := 0; i < k; i++ {
		flag := readU8(f, fd)
		f.IfElse(f.AndI(flag, 1),
			func() { f.Assign(mode, f.AddI(mode, 2)) },
			func() { f.Assign(mode, f.AddI(mode, 1)) })
	}
}

// buildPair assembles a core.Pair from two program builders.
func buildPair(name string, sb, tb *asm.Builder, poc []byte, lib map[string]bool, ctxArgs []int) *core.Pair {
	return &core.Pair{
		Name:    name,
		S:       sb.MustBuild(),
		T:       tb.MustBuild(),
		PoC:     poc,
		Lib:     lib,
		CtxArgs: ctxArgs,
	}
}
