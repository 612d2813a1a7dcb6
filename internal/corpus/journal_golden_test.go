package corpus_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/journals.golden from the current pipeline")

// journalGoldenPath holds one line per (configuration, pass, row): the
// SHA-256 of the deterministic journal rendering. It pins the order and
// payload of every deterministic event, including each cache.probe and
// hybrid.confirm, so a change that reorders, adds or drops an event fails
// here even when the verdict stays the same. Cold-pass lines also carry the
// verdict, type and reason, plus the length and SHA-256 of poc': they pin
// the exact reformed bytes, so an engine change that alters any poc' fails
// here even when the verdict class stays the same.
const journalGoldenPath = "testdata/journals.golden"

// allRows returns every corpus row, 1-21: the Table II pairs, the static
// set and the hybrid set.
func allRows() []*corpus.PairSpec {
	return append(append(corpus.All(), corpus.StaticSet()...), corpus.HybridSet()...)
}

// attachCaches gives every artifact class of pl its own map-backed cache.
func attachCaches(pl *core.Pipeline) {
	caches := make(map[string]core.Cache, len(core.Classes))
	for _, class := range core.Classes {
		caches[class] = newMapCache()
	}
	pl.SetCaches(caches)
}

// goldenRun is one verification of the golden sweep.
type goldenRun struct {
	config, pass string
	row          int
	journal      string // SHA-256 of the deterministic journal rendering
	verdict      string // verdict, type, reason, len(poc') and sha256(poc')
}

// head renders the configuration, pass, row and journal digest columns.
func (r goldenRun) head() string {
	return fmt.Sprintf("%s\t%s\t%02d\t%s", r.config, r.pass, r.row, r.journal)
}

// line renders r as its journals.golden line: cold lines carry the verdict.
func (r goldenRun) line() string {
	if r.pass == "cold" {
		return r.head() + "\t" + r.verdict
	}
	return r.head()
}

var (
	sweepOnce sync.Once
	sweepRuns []goldenRun
	sweepErr  error
)

// goldenSweep verifies rows 1-21 on the library default pipeline, and rows
// 16-21 with every optional layer on, each configuration twice through one
// pipeline with every artifact class cached: the cold pass pins the
// miss-and-compute journals and the verdicts, the warm pass the hit (and
// hybrid replay-gate) journals. The sweep runs once per test binary, shared
// by TestJournalGolden and TestVerdictGolden; with -update it rewrites
// journals.golden.
func goldenSweep(t *testing.T) []goldenRun {
	t.Helper()
	if testing.Short() {
		t.Skip("corpus-wide golden sweep is not short")
	}
	sweepOnce.Do(func() { sweepRuns, sweepErr = runGoldenSweep() })
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepRuns
}

func runGoldenSweep() ([]goldenRun, error) {
	runs := []struct {
		name  string
		cfg   core.Config
		specs []*corpus.PairSpec
	}{
		{"default", core.Config{}, allRows()},
		{"static+absint+hybrid", core.Config{StaticPrune: true, Absint: true, HybridFuzz: true},
			append(corpus.StaticSet(), corpus.HybridSet()...)},
	}
	var got []goldenRun
	for _, r := range runs {
		pl := core.New(r.cfg)
		attachCaches(pl)
		for _, pass := range []string{"cold", "warm"} {
			for _, s := range r.specs {
				rec := journal.New(fmt.Sprintf("pair-%d", s.Idx), journal.Options{})
				rep, err := pl.VerifyContext(journal.With(context.Background(), rec), s.Pair)
				if err != nil {
					return nil, fmt.Errorf("%s %s row %d: Verify: %v", r.name, pass, s.Idx, err)
				}
				rec.Close()
				render := journal.Render(rec.Events(), journal.RenderOptions{})
				got = append(got, goldenRun{
					config:  r.name,
					pass:    pass,
					row:     s.Idx,
					journal: fmt.Sprintf("%x", sha256.Sum256([]byte(render))),
					verdict: fmt.Sprintf("%s\t%s\t%q\t%d\t%x",
						rep.Verdict, rep.Type, rep.Reason, len(rep.PoCPrime), sha256.Sum256(rep.PoCPrime)),
				})
			}
		}
	}
	if *updateGolden {
		lines := make([]string, len(got))
		for i, g := range got {
			lines[i] = g.line()
		}
		if err := os.WriteFile(journalGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			return nil, err
		}
	}
	return got, nil
}

// readGolden returns the committed journals.golden lines, one per run of the
// sweep.
func readGolden(t *testing.T, n int) []string {
	t.Helper()
	raw, err := os.ReadFile(journalGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != n {
		t.Fatalf("golden has %d lines, run produced %d", len(want), n)
	}
	return want
}

// TestJournalGolden compares the journal digest of every run of the golden
// sweep, cold and warm, against journals.golden. Regenerate with
// `go test ./internal/corpus -run TestJournalGolden -update` and review the
// diff: a changed digest is a reordered, added or dropped event.
func TestJournalGolden(t *testing.T) {
	got := goldenSweep(t)
	if *updateGolden {
		return
	}
	want := readGolden(t, len(got))
	for i, g := range got {
		if w := want[i]; !strings.HasPrefix(w+"\t", g.head()+"\t") {
			t.Errorf("line %d journal differs:\n got  %s\n want %s", i+1, g.head(), w)
		}
	}
}

// TestVerdictGolden compares the verdict, type, reason and poc' bytes of
// every cold run of the golden sweep against the tail of its journals.golden
// line, and requires each warm run to reproduce its cold run exactly. A
// changed tail is a changed verdict or poc'.
func TestVerdictGolden(t *testing.T) {
	got := goldenSweep(t)
	if *updateGolden {
		return
	}
	want := readGolden(t, len(got))
	cold := make(map[string]string) // configuration and row → cold verdict
	for i, g := range got {
		row := fmt.Sprintf("%s row %d", g.config, g.row)
		if g.pass == "warm" {
			if g.verdict != cold[row] {
				t.Errorf("line %d: %s warm %s, want the cold pass's %s", i+1, row, g.verdict, cold[row])
			}
			continue
		}
		cold[row] = g.verdict
		if w := strings.SplitN(want[i], "\t", 5); len(w) != 5 || w[4] != g.verdict {
			t.Errorf("line %d verdict differs:\n got  %s\n want %s", i+1, g.line(), want[i])
		}
	}
}
