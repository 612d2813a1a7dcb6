package corpus_test

import (
	"bytes"
	"runtime"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
)

// TestParallelDeterminism is the acceptance gate of the parallel frontier
// engine: over all 21 corpus rows, the library default pipeline (one
// explorer) and an N-worker pipeline must produce identical verdicts,
// types, reasons, and identical poc' bytes.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide determinism sweep is not short")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 4
	}
	ref := core.New(core.Config{})
	par := core.New(core.Config{SymexWorkers: workers})
	for _, s := range allRows() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			a, err := ref.Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify(default): %v", err)
			}
			b, err := par.Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify(workers=%d): %v", workers, err)
			}
			if a.Verdict != b.Verdict || a.Type != b.Type || a.Reason != b.Reason {
				t.Errorf("verdict mismatch: default %v/%v/%q vs workers=%d %v/%v/%q",
					a.Verdict, a.Type, a.Reason, workers, b.Verdict, b.Type, b.Reason)
			}
			if !bytes.Equal(a.PoCPrime, b.PoCPrime) {
				t.Errorf("poc' mismatch: default %d bytes vs workers=%d %d bytes",
					len(a.PoCPrime), workers, len(b.PoCPrime))
			}
		})
	}
	// The shared sat caches must have been exercised.
	if st := ref.SatCache().Stats(); st.Hits+st.Misses == 0 {
		t.Error("reference pipeline never consulted its sat cache")
	}
}

// TestParallelMatchesTableII: the parallel engine must reproduce the
// Table II shape (verdict class and poc' generation per row, 14 of 15
// verified), not just self-consistency.
func TestParallelMatchesTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is not short")
	}
	pipeline := core.New(core.Config{SymexWorkers: 4})
	verified := 0
	for _, s := range corpus.All() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			rep, err := pipeline.Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.Type != s.ExpectType {
				t.Errorf("type = %v (reason %q), want %v", rep.Type, rep.Reason, s.ExpectType)
			}
			if rep.PoCGenerated() != s.ExpectPoC {
				t.Errorf("poc' generated = %v, want %v", rep.PoCGenerated(), s.ExpectPoC)
			}
			if rep.Verified() {
				verified++
			}
		})
	}
	if verified != 14 {
		t.Errorf("verified %d of 15 pairs, want 14", verified)
	}
}
