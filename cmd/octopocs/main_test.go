package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/journal"
	"octopocs/internal/service"
)

func TestRunArgumentValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments should error")
	}
	if err := run([]string{"-pair", "99"}); err == nil || !strings.Contains(err.Error(), "no corpus pair") {
		t.Errorf("bad index error = %v", err)
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunSinglePair(t *testing.T) {
	if err := run([]string{"-pair", "10", "-v"}); err != nil {
		t.Fatalf("run(-pair 10) = %v", err)
	}
}

func TestRunWritesPoC(t *testing.T) {
	out := filepath.Join(t.TempDir(), "poc.bin")
	if err := run([]string{"-pair", "7", "-poc", out}); err != nil {
		t.Fatalf("run = %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("poc' file: %v", err)
	}
	if len(data) == 0 {
		t.Error("poc' file is empty")
	}
	// The reformed opj_dump PoC starts with the codestream SOC marker.
	if data[0] != 0xFF || data[1] != 0x4F {
		t.Errorf("poc' header = % x, want FF 4F", data[:2])
	}
}

func TestRunExplain(t *testing.T) {
	if err := run([]string{"-pair", "7", "-explain"}); err != nil {
		t.Fatalf("run(-explain) = %v", err)
	}
}

// TestBucketOf files every verdict: both replay-confirmed crash verdicts
// are urgent, only a proof defers, and anything else goes to review.
func TestBucketOf(t *testing.T) {
	want := map[core.Verdict]int{
		core.VerdictTriggered:          bucketUrgent,
		core.VerdictTriggeredByFuzzing: bucketUrgent,
		core.VerdictFailure:            bucketReview,
		core.VerdictNotTriggerable:     bucketDeferred,
		core.Verdict(0):                bucketReview,
	}
	for _, v := range core.Verdicts {
		if _, ok := want[v]; !ok {
			t.Errorf("verdict %v has no expected bucket", v)
		}
	}
	for v, b := range want {
		if got := bucketOf(v); got != b {
			t.Errorf("bucketOf(%v) = %d, want %d", v, got, b)
		}
	}
}

func TestRunPrioritize(t *testing.T) {
	if err := run([]string{"-prioritize"}); err != nil {
		t.Fatalf("run(-prioritize) = %v", err)
	}
}

// TestPrioritizeReusesStore runs -prioritize twice on one store: the second
// run must serve every P1 artifact from the store, and its journal must say
// so with a cache.probe hit for each pair.
func TestPrioritizeReusesStore(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	for _, name := range []string{"cold.jsonl", "warm.jsonl"} {
		if err := run([]string{"-prioritize", "-store-dir", store, "-journal", filepath.Join(dir, name)}); err != nil {
			t.Fatalf("run(-prioritize) for %s = %v", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "warm.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := journal.DecodeJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, ev := range events {
		if ev.Type != journal.EvCacheProbe || ev.Attrs["phase"] != "p1" {
			continue
		}
		probes++
		if ev.Attrs["hit"] != true {
			t.Errorf("warm p1 probe %v missed the store", ev.Attrs["key"])
		}
	}
	if want := len(corpus.All()); probes != want {
		t.Errorf("warm journal has %d p1 probes, want %d (one per pair)", probes, want)
	}
}

// TestScanHybridSource scans from a hybrid-set row (18-21): the corpus
// index holds all 21 targets and ranks row 19's own target first.
func TestScanHybridSource(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scan.json")
	if err := run([]string{"scan", "-source", "19", "-retrieve-only", "-json", out}); err != nil {
		t.Fatalf("run(scan -source 19) = %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var statuses []service.ScanStatus
	if err := json.Unmarshal(data, &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 {
		t.Fatalf("got %d scans, want 1", len(statuses))
	}
	st := statuses[0]
	if st.Index.Targets != 21 {
		t.Errorf("indexed %d targets, want 21", st.Index.Targets)
	}
	if len(st.Candidates) == 0 || st.Candidates[0].Target != "corpus/19" {
		t.Errorf("candidates = %+v, want corpus/19 first", st.Candidates)
	}
}
