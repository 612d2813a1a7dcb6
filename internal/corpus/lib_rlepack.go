package corpus

import (
	"octopocs/internal/asm"
	"octopocs/internal/core"
	"octopocs/internal/isa"
)

// This file defines the static-prune pairs (Idx 16-17). They are not Table
// II rows: both T binaries carry constant-disabled code regions — the
// compile-time feature flags a real clone inherits from its build
// configuration — so they exercise the pre-P2 static analysis. Idx 16 is
// the dead-clone variant whose only call into ℓ sits behind a
// constant-false guard (statically unreachable, the short-circuit case);
// Idx 17 keeps a live, triggerable path into ℓ next to a constant-guarded
// dead remnant that pollutes the unpruned distance map.

// addRleExpand emits the shared vulnerable library ℓ: a run-length
// expander that copies a u8-counted byte sequence into a fixed 16-byte
// table without bounding the count — a heap overflow for count > 16.
func addRleExpand(b *asm.Builder) {
	g := b.Function("rle_expand", 1) // (fd)
	fd := g.Param(0)
	cnt := readU8(g, fd)
	table := g.Sys(isa.SysAlloc, g.Const(16))
	i := g.VarI(0)
	g.While(func() isa.Reg { return g.Cmp(isa.Lt, i, cnt) }, func() {
		v := readU8(g, fd)
		g.Store(1, g.Add(table, i), 0, v) // overflows at i == 16
		g.Assign(i, g.AddI(i, 1))
	})
	g.Ret(cnt)
}

var rleLib = map[string]bool{"rle_expand": true}

// rlepackS builds the original rlepack 1.0: magic check, then ℓ expands
// the payload directly.
func rlepackS() *asm.Builder {
	b := asm.NewBuilder("rlepack-1.0")
	addRleExpand(b)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	expectMagic(f, fd, "RLEP")
	f.Call("rle_expand", fd)
	f.Exit(0)
	b.Entry("main")
	return b
}

// rlepackDeadT builds the dead-clone variant: the propagated rle_expand is
// still present, but the embedding product compiled it out — the only call
// sits behind a feature flag that is constant false. The call edge exists
// in the static CFG (so plain backward path finding considers ep
// reachable), yet branch folding kills the guard and with it every path
// into ℓ: the statically-unreachable short-circuit case.
func rlepackDeadT() *asm.Builder {
	b := asm.NewBuilder("rlepack-deadclone")
	addRleExpand(b)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	expectMagic(f, fd, "RLEP")
	enabled := f.Const(0) // the compiled-out feature flag
	f.If(f.NeI(enabled, 0), func() {
		f.Call("rle_expand", fd)
	})
	readU8(f, fd) // consume the count like the original, then ignore it
	f.Exit(0)
	b.Entry("main")
	return b
}

// rlepackEmbedT builds the live clone with a dead remnant: the modern path
// reaches ℓ after a strict version check (so the original poc needs
// reform), while the legacy path — selected by a feasible mode byte —
// still contains a constant-disabled call into ℓ right behind its guard.
// Unpruned, that remnant makes the legacy direction look closest to ep, so
// directed execution wanders into it first and has to backtrack; the
// pruned distance map routes the search straight down the modern path.
func rlepackEmbedT() *asm.Builder {
	b := asm.NewBuilder("rlepack-embed")
	addRleExpand(b)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	expectMagic(f, fd, "RLEP")
	mode := readU8(f, fd)
	f.IfElse(f.EqI(mode, 'L'), func() {
		// Legacy import path, compiled out of this build.
		legacy := f.Const(0)
		f.If(f.NeI(legacy, 0), func() {
			f.Call("rle_expand", fd)
		})
		f.Exit(3)
	}, func() {
		version := readU8(f, fd)
		f.If(f.NeI(version, '2'), func() { f.Exit(1) })
		flags := readU8(f, fd)
		f.If(f.NeI(f.AndI(flags, 0x80), 0), func() { f.Exit(2) })
		f.Call("rle_expand", fd)
	})
	f.Exit(0)
	b.Entry("main")
	return b
}

// rlePoC crashes S: the RLEP magic, then a count of 20 — four past the
// 16-entry table.
func rlePoC() []byte {
	poc := []byte("RLEP")
	poc = append(poc, 20)
	for i := 0; i < 20; i++ {
		poc = append(poc, byte('a'+i%26))
	}
	return poc
}

// rlepackDeadclone is Idx-16: rlepack → rlepack (dead clone). With static
// pruning the verdict short-circuits to statically-unreachable before any
// symbolic execution; without it, directed execution must discover that
// every path into ℓ dies at the constant guard.
func rlepackDeadclone() *PairSpec {
	return &PairSpec{
		Idx:        16,
		SName:      "rlepack",
		SVersion:   "1.0",
		TName:      "rlepack (dead clone)",
		TVersion:   "N/A",
		CVE:        "N/A (synthetic)",
		CWE:        "CWE-119",
		ExpectType: core.TypeIII,
		ExpectPoC:  false,
		Pair: buildPair("rlepack->rlepack-deadclone",
			rlepackS(), rlepackDeadT(), rlePoC(), rleLib, nil),
	}
}

// rlepackEmbed is Idx-17: rlepack → rlepack (embedded). Triggerable via the
// modern path (Type-II: the strict version check defeats the original poc);
// the constant-guarded legacy remnant exists only to distort the unpruned
// distance map.
func rlepackEmbed() *PairSpec {
	return &PairSpec{
		Idx:        17,
		SName:      "rlepack",
		SVersion:   "1.0",
		TName:      "rlepack (embedded)",
		TVersion:   "N/A",
		CVE:        "N/A (synthetic)",
		CWE:        "CWE-119",
		ExpectType: core.TypeII,
		ExpectPoC:  true,
		Pair: buildPair("rlepack->rlepack-embed",
			rlepackS(), rlepackEmbedT(), rlePoC(), rleLib, nil),
	}
}

// StaticSet returns the static-prune pairs (Idx 16-17). They are kept out
// of All() so the Table II row count stays 15; ByIdx resolves them.
func StaticSet() []*PairSpec {
	return []*PairSpec{
		rlepackDeadclone(), // 16
		rlepackEmbed(),     // 17
	}
}
