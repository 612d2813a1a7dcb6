package corpus_test

import (
	"bytes"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/vm"
)

// TestStaticSetDefined checks the static-prune pairs are complete and
// resolvable through ByIdx without disturbing the Table II set.
func TestStaticSetDefined(t *testing.T) {
	specs := corpus.StaticSet()
	if len(specs) != 2 {
		t.Fatalf("static set has %d pairs, want 2", len(specs))
	}
	for i, s := range specs {
		if s.Idx != 16+i {
			t.Errorf("static pair %d has Idx %d, want %d", i, s.Idx, 16+i)
		}
		if s.Pair == nil || s.Pair.S == nil || s.Pair.T == nil || len(s.Pair.PoC) == 0 {
			t.Errorf("pair %d (%s) incomplete", s.Idx, s.Label())
		}
		if got := corpus.ByIdx(s.Idx); got == nil || got.Idx != s.Idx {
			t.Errorf("ByIdx(%d) = %v", s.Idx, got)
		}
	}
}

// TestStaticPoCsCrashS checks the static-set ground truth: the shared PoC
// crashes S inside ℓ.
func TestStaticPoCsCrashS(t *testing.T) {
	for _, s := range corpus.StaticSet() {
		t.Run(s.Label(), func(t *testing.T) {
			out := vm.New(s.Pair.S, vm.Config{Input: s.Pair.PoC}).Run()
			if !out.Crashed() || !out.CrashedIn(s.Pair.Lib) {
				t.Fatalf("S outcome = %v, want crash inside ℓ", out)
			}
		})
	}
}

// TestStaticPruneEquivalence is the static-layer soundness check: every
// corpus pair — the 15 Table II rows plus the static set — must produce the
// same verdict, type, and byte-identical poc' under every combination of
// static pruning and abstract-interpretation value ranges. Only the Reason
// may sharpen (a pair proven unreachable statically reports
// statically-unreachable instead of the symex-derived reason) and the
// effort statistics may shrink. Over the whole corpus they must: with
// pruning on, symex steps and SAT checks are strictly below the off totals.
func TestStaticPruneEquivalence(t *testing.T) {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"off", core.Config{}},
		{"prune", core.Config{StaticPrune: true}},
		{"absint", core.Config{Absint: true}},
		{"prune+absint", core.Config{StaticPrune: true, Absint: true}},
	}
	pipelines := make([]*core.Pipeline, len(configs))
	for i, c := range configs {
		pipelines[i] = core.New(c.cfg)
	}
	specs := append(corpus.All(), corpus.StaticSet()...)
	shortCircuits, ran := 0, 0
	// steps and sats total the symex effort per configuration.
	steps := make([]int64, len(configs))
	sats := make([]int64, len(configs))
	for _, s := range specs {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			repOff, err := pipelines[0].Verify(s.Pair)
			if err != nil {
				t.Fatalf("Verify (%s): %v", configs[0].name, err)
			}
			t.Logf("%s: %v", configs[0].name, repOff)
			if repOff.Static != nil {
				t.Errorf("off report carries a static summary: %v", repOff.Static)
			}
			if repOff.Absint != nil {
				t.Errorf("off report carries an absint summary: %v", repOff.Absint)
			}
			ran++
			steps[0] += repOff.Stats.Steps
			sats[0] += repOff.Stats.SatChecks
			for i := 1; i < len(configs); i++ {
				name, cfg := configs[i].name, configs[i].cfg
				rep, err := pipelines[i].Verify(s.Pair)
				if err != nil {
					t.Fatalf("Verify (%s): %v", name, err)
				}
				t.Logf("%s: %v", name, rep)
				steps[i] += rep.Stats.Steps
				sats[i] += rep.Stats.SatChecks
				if rep.Verdict != repOff.Verdict {
					t.Errorf("%s: verdict %v, off %v", name, rep.Verdict, repOff.Verdict)
				}
				if rep.Type != repOff.Type {
					t.Errorf("%s: type %v, off %v", name, rep.Type, repOff.Type)
				}
				if !bytes.Equal(rep.PoCPrime, repOff.PoCPrime) {
					t.Errorf("%s: poc' differs: %x vs %x", name, rep.PoCPrime, repOff.PoCPrime)
				}
				if cfg.StaticPrune && rep.Static == nil {
					t.Errorf("%s: report is missing the static summary", name)
				}
				if !cfg.StaticPrune && rep.Static != nil {
					t.Errorf("%s: report carries a static summary: %v", name, rep.Static)
				}
				if cfg.Absint && rep.Absint == nil {
					t.Errorf("%s: report is missing the absint summary", name)
				}
				if !cfg.Absint && rep.Absint != nil {
					t.Errorf("%s: report carries an absint summary: %v", name, rep.Absint)
				}
				if rep.Reason == core.ReasonStaticUnreachable {
					shortCircuits++
					if rep.Stats.Steps != 0 || rep.Stats.States != 0 {
						t.Errorf("%s: short-circuited verdict still ran symex: %+v", name, rep.Stats)
					}
				}
			}
		})
	}
	if shortCircuits == 0 {
		t.Error("no pair short-circuited to statically-unreachable")
	}
	if ran < len(specs) {
		return // a -run filter selected a subset; the totals mean nothing
	}
	for i, c := range configs {
		t.Logf("%s: %d symex steps, %d sat checks", c.name, steps[i], sats[i])
		if c.cfg.StaticPrune && (steps[i] >= steps[0] || sats[i] >= sats[0]) {
			t.Errorf("%s: effort %d steps / %d sat checks, want strictly below off (%d / %d)",
				c.name, steps[i], sats[i], steps[0], sats[0])
		}
	}
}

// TestDeadCloneShortCircuits pins the Idx-16 contract: with pruning the
// verdict is statically-unreachable with zero symbolic execution, without
// it the same not-triggerable verdict costs a directed run.
func TestDeadCloneShortCircuits(t *testing.T) {
	spec := corpus.ByIdx(16)
	rep, err := core.New(core.Config{StaticPrune: true}).Verify(spec.Pair)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Verdict != core.VerdictNotTriggerable || rep.Type != core.TypeIII {
		t.Fatalf("verdict = %v/%v, want not-triggerable/Type-III", rep.Verdict, rep.Type)
	}
	if rep.Reason != core.ReasonStaticUnreachable {
		t.Fatalf("reason = %q, want %q", rep.Reason, core.ReasonStaticUnreachable)
	}
	if rep.Stats.Steps != 0 {
		t.Fatalf("short circuit ran %d symex steps, want 0", rep.Stats.Steps)
	}
	if rep.Static == nil || rep.Static.DeadBlocks == 0 || rep.Static.FoldedBranches == 0 {
		t.Fatalf("static summary missing or empty: %+v", rep.Static)
	}
}

// TestEmbedPairTriggers pins the Idx-17 contract: still triggerable with
// pruning on, and the dead legacy remnant is actually pruned.
func TestEmbedPairTriggers(t *testing.T) {
	spec := corpus.ByIdx(17)
	rep, err := core.New(core.Config{StaticPrune: true}).Verify(spec.Pair)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Verdict != core.VerdictTriggered || rep.Type != core.TypeII {
		t.Fatalf("verdict = %v/%v (reason %q), want triggered/Type-II", rep.Verdict, rep.Type, rep.Reason)
	}
	if rep.Static == nil || rep.Static.DeadBlocks == 0 {
		t.Fatalf("static summary missing or empty: %+v", rep.Static)
	}
	out := vm.New(spec.Pair.T, vm.Config{Input: rep.PoCPrime}).Run()
	if !out.Crashed() || !out.CrashedIn(spec.Pair.Lib) {
		t.Fatalf("poc' does not crash T in ℓ: %v", out)
	}
}
