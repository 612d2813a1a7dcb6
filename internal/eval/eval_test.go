package eval_test

import (
	"strings"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/eval"
)

// TestTableIIShape asserts the paper's headline result: 14 of 15 pairs
// verified, with the published per-type counts and poc' column.
func TestTableIIShape(t *testing.T) {
	rows, err := eval.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	byType := map[core.ResultType]int{}
	verified, pocs := 0, 0
	for _, r := range rows {
		byType[r.Type]++
		if r.Verified {
			verified++
		}
		if r.PoCMade {
			pocs++
		}
	}
	if verified != 14 {
		t.Errorf("verified = %d, want 14", verified)
	}
	if pocs != 9 {
		t.Errorf("poc' generated for %d pairs, want 9", pocs)
	}
	want := map[core.ResultType]int{
		core.TypeI: 6, core.TypeII: 3, core.TypeIII: 5, core.TypeFailure: 1,
	}
	for ty, n := range want {
		if byType[ty] != n {
			t.Errorf("%v count = %d, want %d", ty, byType[ty], n)
		}
	}
	out := eval.FormatTableII(rows)
	if !strings.Contains(out, "Verified 14 of 15") {
		t.Errorf("formatted table missing verification summary:\n%s", out)
	}
}

// TestTableIIIShape asserts the ablation result: context-free taint fails
// on exactly the multi-entry pairs (Idx 3, 4, 9), context-aware on none.
func TestTableIIIShape(t *testing.T) {
	rows, err := eval.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	wantPlainFail := map[int]bool{3: true, 4: true, 9: true}
	for _, r := range rows {
		if !r.ContextAware {
			t.Errorf("idx %d: context-aware failed", r.Idx)
		}
		if r.Plain == wantPlainFail[r.Idx] {
			t.Errorf("idx %d: plain taint = %v, want %v", r.Idx, r.Plain, !wantPlainFail[r.Idx])
		}
	}
	out := eval.FormatTableIII(rows)
	if !strings.Contains(out, "6/9") || !strings.Contains(out, "9/9") {
		t.Errorf("formatted table missing summary:\n%s", out)
	}
}

// TestTableIVShape asserts the symbolic-execution comparison: naive SE
// handles only the small opj_dump binary and exhausts memory on the other
// two, while directed SE verifies all three.
func TestTableIVShape(t *testing.T) {
	rows, err := eval.TableIV(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, r := range rows {
		if !r.DSEOk {
			t.Errorf("row %d (%s): directed SE failed", i, r.T)
		}
	}
	if rows[0].SEMemError || !rows[0].SEReached {
		t.Errorf("opj_dump: naive SE should succeed (memError=%v reached=%v)",
			rows[0].SEMemError, rows[0].SEReached)
	}
	for _, i := range []int{1, 2} {
		if !rows[i].SEMemError {
			t.Errorf("%s: naive SE should exhaust memory", rows[i].T)
		}
	}
	out := eval.FormatTableIV(rows)
	if !strings.Contains(out, "MemError") {
		t.Errorf("formatted table missing MemError cells:\n%s", out)
	}
}

// TestTableVShape asserts the tool comparison as the paper states it:
// which tool verifies which pair. OCTOPOCS verifies all three; the fuzzers
// cannot verify the two deep-magic pairs within budget; AFLGo reports a
// tool error on the indirect-dispatch MuPDF binary; AFLFast verifies
// gif2png. The paper makes no wall-clock claim for that row (its OCTOPOCS
// and AFLFast times there are 558 s and 201 s), so none is asserted.
func TestTableVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaigns are slow")
	}
	rows, err := eval.TableV(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// One cell deviates from the paper, as EXPERIMENTS.md records: our
	// AFLGo shares AFLFast's mutation engine and verifies gif2png, which
	// the paper's AFLGo did not within 20 h.
	want := []struct {
		aflfast, aflgo, aflgoErr bool
	}{
		{false, false, false}, // opj_dump: deep magic
		{false, false, true},  // MuPDF: deep magic, static CFG blind to dispatch
		{true, true, false},   // gif2png: a one-byte fix from the PoC
	}
	for i, r := range rows {
		if !r.Octo.Verified {
			t.Errorf("row %d (%s): OCTOPOCS failed to verify", i, r.T)
		}
		if r.AFLFast.Verified != want[i].aflfast {
			t.Errorf("row %d (%s): AFLFast verified = %v, want %v", i, r.T, r.AFLFast.Verified, want[i].aflfast)
		}
		if r.AFLGo.Verified != want[i].aflgo || (r.AFLGo.Err != "") != want[i].aflgoErr {
			t.Errorf("row %d (%s): AFLGo = %+v, want verified %v, tool error %v",
				i, r.T, r.AFLGo, want[i].aflgo, want[i].aflgoErr)
		}
	}
	out := eval.FormatTableV(rows)
	if !strings.Contains(out, "Error") || !strings.Contains(out, "N/A") {
		t.Errorf("formatted table missing expected cells:\n%s", out)
	}
}
