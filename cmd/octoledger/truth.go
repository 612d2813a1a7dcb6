package main

import (
	"fmt"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/vm"
)

// expectation is the verdict the paper's table gives for one corpus row.
// The strings are spelled out here instead of taken from the program's
// String methods, so a renamed verdict shows up as a mismatch.
type expectation struct {
	verdict string
	typ     string
	poc     bool
}

// truthTable maps corpus row numbers to their expected verdicts.
type truthTable map[int]expectation

// groundTruth derives the expected verdicts from the corpus table columns
// (PairSpec.ExpectType, ExpectPoC, ExpectRescue). With the hybrid fallback
// on, the pairs the table marks as rescued expect a replay-confirmed
// triggered-by-fuzzing Type-II verdict instead.
func groundTruth(specs []*corpus.PairSpec, hybrid bool) truthTable {
	t := make(truthTable, len(specs))
	for _, s := range specs {
		e := expectation{poc: s.ExpectPoC}
		switch s.ExpectType {
		case core.TypeI:
			e.verdict, e.typ = "triggered", "Type-I"
		case core.TypeII:
			e.verdict, e.typ = "triggered", "Type-II"
		case core.TypeIII:
			e.verdict, e.typ = "not-triggerable", "Type-III"
		default:
			e.verdict, e.typ = "failure", "Failure"
		}
		if hybrid && s.ExpectRescue {
			e = expectation{verdict: "triggered-by-fuzzing", typ: "Type-II", poc: true}
		}
		t[s.Idx] = e
	}
	return t
}

// triggers reports whether the expected verdict carries a poc' that must
// crash T inside ℓ on replay.
func (e expectation) triggers() bool {
	return e.verdict == "triggered" || e.verdict == "triggered-by-fuzzing"
}

// check compares one observed verdict against the table; an empty result
// means it matches.
func (t truthTable) check(idx int, verdict, typ string, pocBytes int) string {
	e, ok := t[idx]
	switch {
	case !ok:
		return fmt.Sprintf("row %d: no expected verdict", idx)
	case verdict != e.verdict || typ != e.typ:
		return fmt.Sprintf("row %d: verdict %s %s, want %s %s", idx, verdict, typ, e.verdict, e.typ)
	case (pocBytes > 0) != e.poc:
		return fmt.Sprintf("row %d: poc' of %d bytes, want poc'=%v", idx, pocBytes, e.poc)
	}
	return ""
}

// replay runs poc' on a fresh VM over T and reports a failure unless it
// crashes inside ℓ.
func replay(idx int, pair *core.Pair, poc []byte) string {
	out := vm.New(pair.T, vm.Config{Input: poc, MaxSteps: pair.MaxSteps}).Run()
	if !out.Crashed() || !out.CrashedIn(pair.Lib) {
		return fmt.Sprintf("row %d: poc' replay on T did not crash inside ℓ (%s)", idx, out)
	}
	return ""
}

// verifyReport checks a pipeline report against the table and, for
// triggering verdicts, replays its poc'.
func (t truthTable) verifyReport(idx int, pair *core.Pair, rep *core.Report) string {
	if msg := t.check(idx, rep.Verdict.String(), rep.Type.String(), len(rep.PoCPrime)); msg != "" {
		return msg
	}
	if t[idx].triggers() {
		return replay(idx, pair, rep.PoCPrime)
	}
	return ""
}
