package corpus_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/journal"
)

// journalGoldenPath holds one line per (configuration, pass, row): the
// SHA-256 of the deterministic journal rendering. It pins the order and
// payload of every deterministic event, including each cache.probe and
// hybrid.confirm, so a change that reorders, adds or drops an event fails
// here even when the verdict stays the same.
const journalGoldenPath = "testdata/journals.golden"

// attachCaches gives every artifact class of pl its own map-backed cache.
func attachCaches(pl *core.Pipeline) {
	caches := make(map[string]core.Cache, len(core.Classes))
	for _, class := range core.Classes {
		caches[class] = newMapCache()
	}
	pl.SetCaches(caches)
}

// TestJournalGolden verifies rows 1-21 on the library default pipeline, and
// rows 16-21 with every optional layer on, each configuration twice through
// one pipeline with every artifact class cached: the cold pass pins the
// miss-and-compute journals, the warm pass the hit (and hybrid replay-gate)
// journals. Regenerate with
// `go test ./internal/corpus -run TestJournalGolden -update`.
func TestJournalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide journal sweep is not short")
	}
	runs := []struct {
		name  string
		cfg   core.Config
		specs []*corpus.PairSpec
	}{
		{"default", core.Config{}, allRows()},
		{"static+absint+hybrid", core.Config{StaticPrune: true, Absint: true, HybridFuzz: true},
			append(corpus.StaticSet(), corpus.HybridSet()...)},
	}
	var got []string
	for _, r := range runs {
		pl := core.New(r.cfg)
		attachCaches(pl)
		for _, pass := range []string{"cold", "warm"} {
			for _, s := range r.specs {
				rec := journal.New(fmt.Sprintf("pair-%d", s.Idx), journal.Options{})
				if _, err := pl.VerifyContext(journal.With(context.Background(), rec), s.Pair); err != nil {
					t.Fatalf("%s %s row %d: Verify: %v", r.name, pass, s.Idx, err)
				}
				rec.Close()
				render := journal.Render(rec.Events(), journal.RenderOptions{})
				got = append(got, fmt.Sprintf("%s\t%s\t%02d\t%x",
					r.name, pass, s.Idx, sha256.Sum256([]byte(render))))
			}
		}
	}
	text := strings.Join(got, "\n") + "\n"

	if *updateGolden {
		if err := os.WriteFile(journalGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(journalGoldenPath)
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
