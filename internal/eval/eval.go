// Package eval reproduces every quantitative artifact of the paper's
// evaluation (§ V): Tables II through V and the § II-A PoC-type survey.
// Each TableN function runs the corresponding experiment over the synthetic
// corpus and returns structured rows; the Format functions render them the
// way the paper's tables read. The octobench command and the repository's
// top-level benchmarks are thin wrappers over this package. Each experiment
// drives the full P1–P4 pipeline (or an ablated variant of it).
//
// Concurrency: every TableN/Sweep function builds its own pipelines and
// may run concurrently with the others.
package eval

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/fuzz"
	"octopocs/internal/symex"
)

// TableIIRow is one row of Table II: the verification verdict for a pair.
type TableIIRow struct {
	Idx      int
	Type     core.ResultType
	S, T     string
	Vuln     string
	CWE      string
	PoCMade  bool
	Verified bool
	Report   *core.Report
	Elapsed  time.Duration
}

// TableII runs the full pipeline over all 15 pairs.
func TableII() ([]TableIIRow, error) {
	pipeline := core.New(core.Config{})
	rows := make([]TableIIRow, 0, 15)
	for _, spec := range corpus.All() {
		start := time.Now()
		rep, err := pipeline.Verify(spec.Pair)
		if err != nil {
			return nil, fmt.Errorf("idx %d (%s): %w", spec.Idx, spec.Label(), err)
		}
		rows = append(rows, TableIIRow{
			Idx:      spec.Idx,
			Type:     rep.Type,
			S:        fmt.Sprintf("%s %s", spec.SName, spec.SVersion),
			T:        fmt.Sprintf("%s %s", spec.TName, spec.TVersion),
			Vuln:     spec.CVE,
			CWE:      spec.CWE,
			PoCMade:  rep.PoCGenerated(),
			Verified: rep.Verified(),
			Report:   rep,
			Elapsed:  time.Since(start),
		})
	}
	return rows, nil
}

// FormatTableII renders the verification results.
func FormatTableII(rows []TableIIRow) string {
	var sb strings.Builder
	sb.WriteString("Table II: Vulnerability verification results of OCTOPOCS\n")
	fmt.Fprintf(&sb, "%-9s %-4s %-32s %-28s %-22s %-8s %-5s %-13s %s\n",
		"Type", "Idx", "S", "T", "Vulnerability", "CWE", "poc'", "Verification", "Time")
	verified := 0
	for _, r := range rows {
		if r.Verified {
			verified++
		}
		fmt.Fprintf(&sb, "%-9s %-4d %-32s %-28s %-22s %-8s %-5s %-13s %v\n",
			r.Type, r.Idx, r.S, r.T, r.Vuln, r.CWE, mark(r.PoCMade), mark(r.Verified), r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "Verified %d of %d pairs (paper: 14 of 15)\n", verified, len(rows))
	return sb.String()
}

// TableIIIRow is one row of Table III: context-free versus context-aware
// taint analysis on the nine triggered pairs.
type TableIIIRow struct {
	Idx          int
	S, T         string
	Plain        bool // taint analysis without context information
	ContextAware bool
}

// TableIII runs both taint modes over the triggered pairs (Idx 1-9).
func TableIII() ([]TableIIIRow, error) {
	rows := make([]TableIIIRow, 0, 9)
	for idx := 1; idx <= 9; idx++ {
		aware := corpus.ByIdx(idx)
		plain := corpus.ByIdx(idx)
		repA, err := core.New(core.Config{}).Verify(aware.Pair)
		if err != nil {
			return nil, fmt.Errorf("idx %d aware: %w", idx, err)
		}
		repP, err := core.New(core.Config{ContextFree: true}).Verify(plain.Pair)
		if err != nil {
			return nil, fmt.Errorf("idx %d plain: %w", idx, err)
		}
		rows = append(rows, TableIIIRow{
			Idx:          idx,
			S:            aware.SName,
			T:            aware.TName,
			Plain:        repP.Verdict == core.VerdictTriggered,
			ContextAware: repA.Verdict == core.VerdictTriggered,
		})
	}
	return rows, nil
}

// FormatTableIII renders the taint-mode comparison.
func FormatTableIII(rows []TableIIIRow) string {
	var sb strings.Builder
	sb.WriteString("Table III: Effectiveness of context-aware taint analysis\n")
	fmt.Fprintf(&sb, "%-4s %-26s %-24s %-16s %s\n", "Idx", "S", "T", "Taint analysis", "Context-aware")
	plainOK, awareOK := 0, 0
	for _, r := range rows {
		if r.Plain {
			plainOK++
		}
		if r.ContextAware {
			awareOK++
		}
		fmt.Fprintf(&sb, "%-4d %-26s %-24s %-16s %s\n", r.Idx, r.S, r.T, mark(r.Plain), mark(r.ContextAware))
	}
	fmt.Fprintf(&sb, "Plain taint generated a working poc' for %d/%d; context-aware for %d/%d (paper: 6/9 vs 9/9)\n",
		plainOK, len(rows), awareOK, len(rows))
	return sb.String()
}

// tableIVPairs are the Type-II pairs used for Tables IV and V, with their
// entry points.
var tableIVPairs = []int{7, 8, 9}

// TableIVRow compares naive and directed symbolic execution on one pair.
type TableIVRow struct {
	S, T string
	// Naive (undirected) exploration.
	SETime     time.Duration
	SEMemBytes int64
	SEMemError bool
	SEReached  bool
	// Directed symbolic execution (the full P2+P3 of the pipeline).
	DSETime     time.Duration
	DSEMemBytes int64
	DSEOk       bool
}

// TableIV measures both execution styles on the three Type-II pairs.
// memBudget is the naive-mode memory cap (the 32 GB testbed analog);
// DefaultMemBudget when zero.
func TableIV(memBudget int64) ([]TableIVRow, error) {
	rows := make([]TableIVRow, 0, len(tableIVPairs))
	for _, idx := range tableIVPairs {
		spec := corpus.ByIdx(idx)
		pipeline := core.New(core.Config{})
		ep, err := pipeline.FindEp(spec.Pair)
		if err != nil {
			return nil, fmt.Errorf("idx %d: %w", idx, err)
		}
		row := TableIVRow{S: spec.SName, T: spec.TName}

		start := time.Now()
		res, nerr := symex.RunNaive(spec.Pair.T, symex.NaiveConfig{
			Target:    ep,
			InputSize: len(spec.Pair.PoC) + 64,
			MemBudget: memBudget,
			MaxSteps:  spec.Pair.MaxSteps,
		})
		row.SETime = time.Since(start)
		if res != nil {
			row.SEMemBytes = res.Stats.PeakMemBytes
			row.SEReached = res.Reached()
		}
		row.SEMemError = errors.Is(nerr, symex.ErrMemBudget)

		start = time.Now()
		rep, err := pipeline.Verify(spec.Pair)
		if err != nil {
			return nil, fmt.Errorf("idx %d directed: %w", idx, err)
		}
		row.DSETime = time.Since(start)
		row.DSEMemBytes = rep.Stats.PeakMemBytes
		row.DSEOk = rep.Verdict == core.VerdictTriggered
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTableIV renders the symbolic-execution comparison.
func FormatTableIV(rows []TableIVRow) string {
	var sb strings.Builder
	sb.WriteString("Table IV: Effectiveness of directed symbolic execution\n")
	fmt.Fprintf(&sb, "%-14s %-22s | %-12s %-12s | %-12s %-12s\n",
		"S", "T", "SE time", "SE mem", "D-SE time", "D-SE mem")
	for _, r := range rows {
		se := fmt.Sprintf("%v", r.SETime.Round(time.Microsecond))
		seMem := fmt.Sprintf("%dKB", r.SEMemBytes/1024)
		if r.SEMemError {
			se, seMem = "N/A", "MemError"
		}
		fmt.Fprintf(&sb, "%-14s %-22s | %-12s %-12s | %-12v %-12s\n",
			r.S, r.T, se, seMem,
			r.DSETime.Round(time.Microsecond), fmt.Sprintf("%dKB", r.DSEMemBytes/1024))
	}
	sb.WriteString("(paper: naive SE hits MemError on MuPDF and gif2png-artificial; D-SE succeeds on all three)\n")
	return sb.String()
}

// TableVRow compares the fuzzing baselines with OCTOPOCS on one pair.
type TableVRow struct {
	S, T string
	// Per-tool outcome; Err carries AFLGo's tool error.
	AFLFast ToolOutcome
	AFLGo   ToolOutcome
	Octo    ToolOutcome
}

// ToolOutcome is one verification attempt.
type ToolOutcome struct {
	Verified bool
	Elapsed  time.Duration
	Execs    int64
	Err      string
}

// TableV runs the comparison with the given fuzzing execution budget (the
// paper's 20-hour cap analog).
func TableV(maxExecs int64) ([]TableVRow, error) {
	if maxExecs <= 0 {
		maxExecs = 300_000
	}
	rows := make([]TableVRow, 0, len(tableIVPairs))
	for _, idx := range tableIVPairs {
		spec := corpus.ByIdx(idx)
		pipeline := core.New(core.Config{})
		ep, err := pipeline.FindEp(spec.Pair)
		if err != nil {
			return nil, fmt.Errorf("idx %d: %w", idx, err)
		}
		row := TableVRow{S: spec.SName, T: spec.TName}
		maxSteps := spec.Pair.MaxSteps
		if maxSteps <= 0 {
			maxSteps = 200_000
		}
		target := &fuzz.Target{Prog: spec.Pair.T, Lib: spec.Pair.Lib, MaxSteps: maxSteps}
		// The campaign seed is fixed for reproducibility; whether a
		// havoc campaign cracks the one-byte gif2png check within a
		// given budget is seed-dependent, exactly as the paper's
		// wall-clock numbers were machine- and run-dependent.
		cfg := fuzz.Config{Seeds: [][]byte{spec.Pair.PoC}, MaxExecs: maxExecs, Seed: 3}

		start := time.Now()
		ff := fuzz.RunAFLFast(target, cfg)
		row.AFLFast = ToolOutcome{Verified: ff.Found, Elapsed: time.Since(start), Execs: ff.Execs}

		start = time.Now()
		fg, gerr := fuzz.RunAFLGo(target, ep, cfg)
		if gerr != nil {
			row.AFLGo = ToolOutcome{Err: "Error", Elapsed: time.Since(start)}
		} else {
			row.AFLGo = ToolOutcome{Verified: fg.Found, Elapsed: time.Since(start), Execs: fg.Execs}
		}

		start = time.Now()
		rep, err := pipeline.Verify(spec.Pair)
		if err != nil {
			return nil, fmt.Errorf("idx %d octopocs: %w", idx, err)
		}
		row.Octo = ToolOutcome{Verified: rep.Verdict == core.VerdictTriggered, Elapsed: time.Since(start)}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTableV renders the tool comparison.
func FormatTableV(rows []TableVRow) string {
	var sb strings.Builder
	sb.WriteString("Table V: Elapsed effort for verifying the propagated vulnerability\n")
	fmt.Fprintf(&sb, "%-14s %-22s | %-22s %-22s %-12s\n", "S", "T", "AFLFast", "AFLGo", "OCTOPOCS")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-22s | %-22s %-22s %-12s\n",
			r.S, r.T, toolCell(r.AFLFast), toolCell(r.AFLGo), toolCell(r.Octo))
	}
	sb.WriteString("(paper: AFLFast verifies only gif2png; AFLGo verifies none and errors on MuPDF; OCTOPOCS verifies all three)\n")
	return sb.String()
}

func toolCell(o ToolOutcome) string {
	if o.Err != "" {
		return o.Err
	}
	if !o.Verified {
		return "N/A"
	}
	if o.Execs > 0 {
		return fmt.Sprintf("%v (%d execs)", o.Elapsed.Round(time.Millisecond), o.Execs)
	}
	return o.Elapsed.Round(time.Millisecond).String()
}

func mark(ok bool) string {
	if ok {
		return "O"
	}
	return "X"
}
