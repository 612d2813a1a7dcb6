package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octopocs/internal/core"
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
