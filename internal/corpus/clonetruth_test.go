package corpus

import (
	"reflect"
	"testing"
)

// TestCloneTruthCoversAllRows pins the ground-truth table to the 21 corpus
// rows: complete, in order, with a family and a non-empty ℓ for every row.
func TestCloneTruthCoversAllRows(t *testing.T) {
	rows := CloneTruth()
	if len(rows) != 21 {
		t.Fatalf("CloneTruth: got %d rows, want 21", len(rows))
	}
	for i, r := range rows {
		if r.Idx != i+1 {
			t.Errorf("row %d: Idx = %d, want %d", i, r.Idx, i+1)
		}
		if r.Family == "" {
			t.Errorf("row %d: empty family", r.Idx)
		}
		if len(r.Lib) == 0 {
			t.Errorf("row %d: empty Lib", r.Idx)
		}
		for j := 1; j < len(r.Lib); j++ {
			if r.Lib[j-1] >= r.Lib[j] {
				t.Errorf("row %d: Lib not sorted: %v", r.Idx, r.Lib)
			}
		}
	}
}

// TestCloneTruthMatchesPairSpecs checks the table agrees with the
// authoritative PairSpec data: Lib is exactly the pair's ℓ key set and
// ExpectTriggered mirrors ExpectPoC.
func TestCloneTruthMatchesPairSpecs(t *testing.T) {
	for _, r := range CloneTruth() {
		spec := ByIdx(r.Idx)
		if spec == nil {
			t.Fatalf("row %d: no PairSpec", r.Idx)
		}
		if r.Source != spec.SName || r.Target != spec.TName {
			t.Errorf("row %d: names %s->%s, spec %s->%s", r.Idx, r.Source, r.Target, spec.SName, spec.TName)
		}
		if len(r.Lib) != len(spec.Pair.Lib) {
			t.Errorf("row %d: Lib %v does not cover pair lib %v", r.Idx, r.Lib, spec.Pair.Lib)
		}
		for _, fn := range r.Lib {
			if !spec.Pair.Lib[fn] {
				t.Errorf("row %d: Lib contains %q, not in pair lib", r.Idx, fn)
			}
		}
		if r.ExpectTriggered != spec.ExpectPoC {
			t.Errorf("row %d: ExpectTriggered = %v, spec ExpectPoC = %v", r.Idx, r.ExpectTriggered, spec.ExpectPoC)
		}
	}
}

// TestCloneTruthFamilies pins the family partition, including the
// Type-variant members 13/14, the static-prune rows 16/17 and the
// hybrid-fallback rows 18-21, which share one ℓ.
func TestCloneTruthFamilies(t *testing.T) {
	want := map[string][]int{
		"jpegc":   {1, 2},
		"pdfscan": {3},
		"avdec":   {4},
		"tjdec":   {5},
		"pdfbox":  {6, 14},
		"j2k":     {7, 8, 13},
		"gifread": {9},
		"tiff":    {10, 11, 12},
		"pdfnum":  {15},
		"rlepack": {16, 17},
		"decode":  {18, 19, 20, 21},
	}
	seen := 0
	for fam, idxs := range want {
		if got := FamilyTargets(fam); !reflect.DeepEqual(got, idxs) {
			t.Errorf("FamilyTargets(%q) = %v, want %v", fam, got, idxs)
		}
		for _, idx := range idxs {
			if CloneFamilyOf(idx) != fam {
				t.Errorf("CloneFamilyOf(%d) = %q, want %q", idx, CloneFamilyOf(idx), fam)
			}
			seen++
		}
	}
	if seen != 21 {
		t.Fatalf("family partition covers %d rows, want 21", seen)
	}
	// Same-family rows must actually share ℓ function names, otherwise the
	// family is not a clone family at all.
	byIdx := map[int]CloneTruthRow{}
	for _, r := range CloneTruth() {
		byIdx[r.Idx] = r
	}
	for fam, idxs := range want {
		for _, a := range idxs {
			for _, b := range idxs {
				if overlap(byIdx[a].Lib, byIdx[b].Lib) == 0 {
					t.Errorf("family %q: rows %d and %d share no ℓ functions", fam, a, b)
				}
			}
		}
	}
}

// TestCloneTruthVariants pins which rows are Type-variant clones.
func TestCloneTruthVariants(t *testing.T) {
	want := map[int]bool{13: true, 14: true, 16: true, 17: true}
	for _, r := range CloneTruth() {
		if r.Variant != want[r.Idx] {
			t.Errorf("row %d: Variant = %v, want %v", r.Idx, r.Variant, want[r.Idx])
		}
	}
	if got := CloneTruthByIdx(16); got == nil || !got.Variant {
		t.Errorf("CloneTruthByIdx(16) = %+v, want variant row", got)
	}
	if CloneTruthByIdx(99) != nil {
		t.Error("CloneTruthByIdx(99) should be nil")
	}
}

func overlap(a, b []string) int {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	n := 0
	for _, s := range b {
		if set[s] {
			n++
		}
	}
	return n
}
