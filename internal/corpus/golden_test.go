package corpus_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current pipeline")

// goldenPath holds one line per (configuration, row): the verdict, type and
// reason, plus the length and SHA-256 of poc'. It pins the exact reformed
// bytes, so an engine change that alters any poc' fails here even when the
// verdict class stays the same.
const goldenPath = "testdata/verdicts.golden"

// TestVerdictGolden verifies all 21 corpus rows on the library default
// pipeline, and the hybrid rows 18-21 with every optional layer on, and
// compares the outcome line by line against the committed golden file.
// Regenerate with `go test ./internal/corpus -run TestVerdictGolden -update`
// and review the diff: a changed line is a changed verdict or poc'.
func TestVerdictGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide golden sweep is not short")
	}
	runs := []struct {
		name  string
		cfg   core.Config
		specs []*corpus.PairSpec
	}{
		{"default", core.Config{}, allRows()},
		{"static+absint+hybrid", core.Config{StaticPrune: true, Absint: true, HybridFuzz: true}, corpus.HybridSet()},
	}
	var got []string
	for _, r := range runs {
		pl := core.New(r.cfg)
		for _, s := range r.specs {
			rep, err := pl.Verify(s.Pair)
			if err != nil {
				t.Fatalf("%s row %d: Verify: %v", r.name, s.Idx, err)
			}
			got = append(got, fmt.Sprintf("%s\t%02d\t%s\t%s\t%q\t%d\t%x",
				r.name, s.Idx, rep.Verdict, rep.Type, rep.Reason, len(rep.PoCPrime), sha256.Sum256(rep.PoCPrime)))
		}
	}
	text := strings.Join(got, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}

// allRows returns every corpus row, 1-21: the Table II pairs, the static
// set and the hybrid set.
func allRows() []*corpus.PairSpec {
	return append(append(corpus.All(), corpus.StaticSet()...), corpus.HybridSet()...)
}
