package corpus_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/faultinject"
	"octopocs/internal/symex"
)

// TestVerdictStableUnderFaults drives the full 17-pair corpus through four
// canned fault schedules and pins the robustness contract to the paper's
// ground truth: under retryable and degraded faults every pair must
// reproduce its fault-free verdict and poc' byte-for-byte; under fatal
// faults the pipeline must return an explicitly classified error, never a
// quietly different verdict.
func TestVerdictStableUnderFaults(t *testing.T) {
	all := append(corpus.All(), corpus.StaticSet()...)

	schedules := []struct {
		name     string
		schedule string
		cfg      core.Config
		fatal    bool
	}{
		// Transient solver faults: absorbed by per-phase retry. At most two
		// faults total, so even if both land in the same phase they stay
		// under the DefaultRetryMax budget — recovery is guaranteed, not
		// probabilistic. (Exhaustion is covered by core's
		// TestRetryExhaustionIsExplicit.)
		{
			name:     "transient",
			schedule: "seed=1;solver.sat:nth=3;solver.timeout:nth=1",
			cfg:      core.Config{},
		},
		// Mixed panic + degradation: worker panic retried, static analysis
		// and caches degraded.
		{
			name:     "degraded",
			schedule: "seed=2;symex.worker_panic:nth=1;core.static:nth=1;solver.cache:rate=0.3;core.cache_put:rate=1",
			cfg:      core.Config{StaticPrune: true},
		},
		// The canned chaos load: roughly one in ten Sat checks fails
		// transiently, one worker panic is injected, and the shared
		// SAT-verdict cache is bypassed half the time. Retry.Max covers the
		// worst case (4 sat faults + 1 worker panic all landing in one
		// phase), so recovery is guaranteed rather than probabilistic.
		{
			name:     "canned",
			schedule: "seed=7;solver.sat:rate=0.1,count=4;symex.worker_panic:nth=1;solver.cache:rate=0.5",
			cfg:      core.Config{Retry: core.RetryPolicy{Max: 6, BaseDelay: time.Millisecond}},
		},
		// Fatal: forced cancellation mid-exploration.
		{
			name:     "fatal-cancel",
			schedule: "seed=3;symex.cancel:nth=1",
			cfg:      core.Config{},
			fatal:    true,
		},
	}

	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			baseCfg := sc.cfg
			baseCfg.Faults = nil
			basePl := core.New(baseCfg)

			for _, spec := range all {
				spec := spec
				t.Run(spec.Pair.Name, func(t *testing.T) {
					base, err := basePl.Verify(spec.Pair)
					if err != nil {
						t.Fatalf("baseline: %v", err)
					}
					// The baseline must itself match Table II before fault
					// equivalence means anything.
					if spec.ExpectType != 0 && base.Type != spec.ExpectType {
						t.Fatalf("baseline type %v, want %v", base.Type, spec.ExpectType)
					}

					sch, err := faultinject.ParseSchedule(sc.schedule)
					if err != nil {
						t.Fatal(err)
					}
					cfg := sc.cfg
					cfg.Faults = faultinject.New(sch)
					rep, err := core.New(cfg).Verify(spec.Pair)

					if sc.fatal {
						// Pairs that finish before symbolic execution starts
						// never reach the injection point; for the rest the
						// cancellation must surface explicitly.
						if err == nil {
							assertSameOutcome(t, base, rep, true)
							return
						}
						if !errors.Is(err, symex.ErrStopped) && !errors.Is(err, context.Canceled) {
							t.Fatalf("fatal schedule produced unclassified error: %v", err)
						}
						if faultinject.IsTransient(err) || faultinject.IsDegraded(err) {
							t.Fatalf("fatal cancellation misclassified as recoverable: %v", err)
						}
						return
					}

					if err != nil {
						t.Fatalf("faulted verify: %v", err)
					}
					// Under static degradation Reason/Static may change; the
					// verdict, type, and poc' may not.
					strict := sc.name != "degraded"
					assertSameOutcome(t, base, rep, strict)
				})
			}
		})
	}
}

// assertSameOutcome compares a faulted report with its fault-free baseline.
// Strict mode also pins Reason and the static summary; loose mode allows
// those to shift when a degraded static phase falls back to the unpruned
// pipeline.
func assertSameOutcome(t *testing.T, want, got *core.Report, strict bool) {
	t.Helper()
	if got.Verdict != want.Verdict || got.Type != want.Type {
		t.Errorf("verdict/type = %v/%v, want %v/%v", got.Verdict, got.Type, want.Verdict, want.Type)
	}
	if string(got.PoCPrime) != string(want.PoCPrime) {
		t.Errorf("poc' differs: %d bytes vs baseline %d", len(got.PoCPrime), len(want.PoCPrime))
	}
	if strict && got.Reason != want.Reason {
		t.Errorf("reason = %q, want %q", got.Reason, want.Reason)
	}
}
