package corpus

import "sort"

// CloneFamily names the propagation family of a corpus row: every pair in a
// family shares (a variant of) the same vulnerable library ℓ, so clone
// detection over the corpus should retrieve exactly the same-family targets
// for any family member's source program.
//
// The 21 rows fall into eleven families: jpegc (1, 2), pdfscan (3), avdec
// (4), tjdec (5), pdfbox (6, 14), j2k (7, 8, 13), gifread (9), tiff (10, 11,
// 12), pdfnum (15), rlepack (16, 17), and decode (18-21). The four
// hybrid-fallback rows (dlscan, cksum, twomag, lprec) guard one verbatim
// copy of the same ℓ, decode(), behind different structure, so retrieval
// from any of their sources rightly ranks all four targets.
var cloneFamilies = map[int]string{
	1: "jpegc", 2: "jpegc",
	3:  "pdfscan",
	4:  "avdec",
	5:  "tjdec",
	6:  "pdfbox",
	7:  "j2k",
	8:  "j2k",
	9:  "gifread",
	10: "tiff", 11: "tiff", 12: "tiff",
	13: "j2k",
	14: "pdfbox",
	15: "pdfnum",
	16: "rlepack", 17: "rlepack",
	18: "decode", 19: "decode", 20: "decode", 21: "decode",
}

// cloneVariants marks the rows whose target carries a Type-variant clone of
// ℓ rather than a verbatim copy: 13 (patched j2k), 14 (patched pdfbox), and
// the static-prune rows 16/17 (re-tuned rlepack constants and pruned
// dispatch).
var cloneVariants = map[int]bool{13: true, 14: true, 16: true, 17: true}

// CloneTruthRow is the clone-detection ground truth for one corpus row: who
// the pair is, which family it belongs to, the shared function set ℓ a
// detector must recover, and whether end-to-end verification of the
// discovered candidate should confirm it (triggered) or refute it.
type CloneTruthRow struct {
	// Idx is the corpus row number (1-21).
	Idx int
	// Family groups rows sharing the same vulnerable library.
	Family string
	// Source and Target are the S/T software names of the row.
	Source string
	Target string
	// Lib is the shared vulnerable function set ℓ, sorted by name.
	Lib []string
	// Variant marks Type-variant clones (patched, constant-retuned, or
	// dispatch-pruned copies of ℓ) as opposed to verbatim propagation.
	Variant bool
	// ExpectTriggered reports whether pipeline verification of this row's
	// own (S, T, ℓ) candidate should yield a reformed PoC that triggers the
	// vulnerability in T. It mirrors ExpectPoC on the PairSpec: false rows
	// are true clones that verification must refute, which is exactly the
	// precision the retrieval stage cannot provide on its own.
	ExpectTriggered bool
}

// CloneTruth returns the clone-detection ground truth for all 21 corpus
// rows (Table II, the static-prune set and the hybrid-fallback set), in row
// order. Rows are rebuilt on each call; callers may mutate them freely.
func CloneTruth() []CloneTruthRow {
	specs := Rows()
	rows := make([]CloneTruthRow, 0, len(specs))
	for _, s := range specs {
		lib := make([]string, 0, len(s.Pair.Lib))
		for fn := range s.Pair.Lib {
			lib = append(lib, fn)
		}
		sort.Strings(lib)
		rows = append(rows, CloneTruthRow{
			Idx:             s.Idx,
			Family:          cloneFamilies[s.Idx],
			Source:          s.SName,
			Target:          s.TName,
			Lib:             lib,
			Variant:         cloneVariants[s.Idx],
			ExpectTriggered: s.ExpectPoC,
		})
	}
	return rows
}

// CloneTruthByIdx returns the ground-truth row with the given index, or nil.
func CloneTruthByIdx(idx int) *CloneTruthRow {
	for _, r := range CloneTruth() {
		if r.Idx == idx {
			r := r
			return &r
		}
	}
	return nil
}

// CloneFamilyOf returns the family name of a corpus row ("" if unknown).
func CloneFamilyOf(idx int) string { return cloneFamilies[idx] }

// FamilyTargets returns the row indices belonging to the given family in
// ascending order: the set of targets a scan from any family member's source
// should retrieve, and the only rows where a confirmed verdict can be a true
// positive.
func FamilyTargets(family string) []int {
	var out []int
	for idx, f := range cloneFamilies {
		if f == family {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}
