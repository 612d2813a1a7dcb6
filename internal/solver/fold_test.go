package solver_test

import (
	"slices"
	"testing"

	"octopocs/internal/corpus"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
)

// TestFoldFiresOnRow3 runs row 3's dynamic-CFG discovery (pdftops,
// Poppler→Xpdf) with and without the residual fold. Its pair filters check
// ((in[2k] == 0x7f) & (in[2k+1] == 0x0)) != 0, false for every inner value
// once the outer one misses 0x7f. The fold must cut the evaluations
// actually run at least tenfold and charge exactly the same budget, with
// the same discovered edges.
func TestFoldFiresOnRow3(t *testing.T) {
	pair := corpus.ByIdx(3).Pair
	discover := func(fold bool) (charged, evaluated int64, edges []symex.IndirectEdge) {
		charged, evaluated = solver.CountEvaluations(fold, func() {
			var err error
			edges, err = symex.Discover(pair.T, symex.NaiveConfig{
				InputSize: len(pair.PoC) + 64, MaxSteps: pair.MaxSteps, SolverCache: solver.NewCache(0),
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		return charged, evaluated, edges
	}
	plainCharged, plainRun, plainEdges := discover(false)
	charged, run, edges := discover(true)
	t.Logf("row 3 discovery: charged %d, run %d without the fold, %d with it", plainCharged, plainRun, run)
	if charged != plainCharged {
		t.Errorf("charged %d evaluations with the fold, %d without", charged, plainCharged)
	}
	if run*10 > plainRun {
		t.Errorf("ran %d evaluations with the fold, want at most a tenth of %d", run, plainRun)
	}
	if !slices.Equal(edges, plainEdges) {
		t.Errorf("discovered %v with the fold, %v without", edges, plainEdges)
	}
}
