package core

import (
	"fmt"
	"time"

	"octopocs/internal/absint"
	"octopocs/internal/hybrid"
	"octopocs/internal/mirstatic"
	"octopocs/internal/symex"
	"octopocs/internal/vm"
)

// Verdict is the top-level verification outcome.
type Verdict int

// Verdicts.
const (
	// VerdictTriggered: poc' crashes T inside ℓ — the propagated
	// vulnerability is real and needs patching first (case i).
	VerdictTriggered Verdict = iota + 1
	// VerdictNotTriggerable: OCTOPOCS established that the propagated
	// code cannot be triggered (cases ii and iii).
	VerdictNotTriggerable
	// VerdictFailure: no sound verdict (e.g. unresolvable CFG).
	VerdictFailure
	// VerdictTriggeredByFuzzing: symbolic execution gave up (θ-exhaustion
	// or solver budget), but the directed-fuzzing fallback produced an
	// input that crashes T inside ℓ, replay-confirmed on the concrete VM.
	// Kept distinct from VerdictTriggered because the poc' was found, not
	// derived — the crash witness is equally concrete, but no reform
	// argument links it to the S-side primitives.
	VerdictTriggeredByFuzzing
)

// Verdicts lists every verdict, for code that must handle or count each
// one, such as per-verdict metric series.
var Verdicts = []Verdict{VerdictTriggered, VerdictNotTriggerable, VerdictFailure, VerdictTriggeredByFuzzing}

// Triggered reports whether v carries a crash inside ℓ confirmed by
// concrete replay, whether the poc' was reformed or fuzzed.
func (v Verdict) Triggered() bool {
	return v == VerdictTriggered || v == VerdictTriggeredByFuzzing
}

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictTriggered:
		return "triggered"
	case VerdictNotTriggerable:
		return "not-triggerable"
	case VerdictFailure:
		return "failure"
	case VerdictTriggeredByFuzzing:
		return "triggered-by-fuzzing"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// ResultType is the paper's Table II classification.
type ResultType int

// Result types.
const (
	// TypeI: triggered, and the original poc also works on T.
	TypeI ResultType = iota + 1
	// TypeII: triggered, but only the reformed poc' works.
	TypeII
	// TypeIII: verified not triggerable.
	TypeIII
	// TypeFailure: verification failed.
	TypeFailure
)

// ResultTypes lists every result type, as Verdicts lists every verdict.
var ResultTypes = []ResultType{TypeI, TypeII, TypeIII, TypeFailure}

// String renders the type the way Table II spells it.
func (t ResultType) String() string {
	switch t {
	case TypeI:
		return "Type-I"
	case TypeII:
		return "Type-II"
	case TypeIII:
		return "Type-III"
	case TypeFailure:
		return "Failure"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Reason codes for non-triggered verdicts.
type Reason string

// Reasons.
const (
	ReasonNone          Reason = ""
	ReasonEpMissing     Reason = "ep not present in T"
	ReasonEpNotCalled   Reason = "ep not called in T" // case (ii)
	ReasonProgramDead   Reason = "program-dead state" // case (iii)
	ReasonLoopDead      Reason = "loop-dead state within θ"
	ReasonParamMismatch Reason = "ep called with mismatching context parameters"
	ReasonUnsat         Reason = "combined constraints unsatisfiable"
	ReasonCFGUnresolved Reason = "CFG construction failed (unresolved indirect calls)"
	ReasonNoCrash       Reason = "generated poc' did not crash T"
	ReasonBudget        Reason = "analysis budget exhausted"
	// ReasonStaticUnreachable is the static-prune short-circuit: the
	// verified T cannot reach ep even with every unresolved indirect call
	// over-approximated as may-call-anything, so the not-triggerable
	// verdict is sound without running symbolic execution (case ii).
	ReasonStaticUnreachable Reason = "statically-unreachable"
)

// Report is the full result of verifying one pair.
type Report struct {
	Pair    string
	Verdict Verdict
	Type    ResultType
	Reason  Reason

	// Ep is the discovered entry point of ℓ.
	Ep string
	// Bunches are the crash primitives extracted in P1.
	Bunches []BunchBytes
	// PoCPrime is the reformed PoC; nil when none was generated.
	PoCPrime []byte
	// GuidingSame reports whether the original poc also triggers T
	// (the Type-I condition).
	GuidingSame bool

	// SCrash is the crash observed in S during preprocessing; TCrash the
	// one produced by poc' in T (nil unless triggered).
	SCrash *vm.Crash
	TCrash *vm.Crash

	// Stats aggregates symbolic-execution effort (P2+P3).
	Stats symex.Stats

	// Static summarizes the pre-P2 static analysis of T (blocks folded and
	// pruned, dead regions, reachable functions); nil when static pruning
	// was disabled for this pair.
	Static *mirstatic.Summary

	// Absint summarizes the abstract-interpretation value-range analysis of
	// T (branches proved, blocks unreachable); nil when absint was disabled.
	Absint *absint.Summary

	// Hybrid is the directed-fuzzing fallback outcome; nil unless the
	// fallback ran (HybridFuzz on and symex ended θ- or budget-exhausted).
	Hybrid *hybrid.Outcome

	// Timings records per-phase wall clock and cache reuse. Unlike every
	// other Report field it is not a pure function of the pair, so
	// report-equality comparisons should zero it first.
	Timings PhaseTimings
}

// Phases names the pipeline phases in run order: the span names, the
// octopocs_phase_seconds labels and the keys of the service's phase
// latency statistics.
var Phases = []string{"p1", "absint", "static", "p2_prep", "reform", "hybrid", "p4"}

// PhaseTimings is the per-phase wall-clock breakdown of one verification,
// plus which phases were served from an artifact cache.
type PhaseTimings struct {
	// P1 covers preprocessing plus crash-primitive extraction (S-side).
	P1 time.Duration
	// Static covers the pre-P2 static analysis of T (isa's Check with
	// read-before-write warnings, branch folding, dominators,
	// reachability); zero when disabled.
	Static time.Duration
	// Absint covers the abstract-interpretation value-range analysis of T;
	// zero when disabled.
	Absint time.Duration
	// P2Prep covers CFG construction, dynamic edge discovery, and
	// backward path finding (T-side preparation).
	P2Prep time.Duration
	// Reform covers directed symbolic execution with bunch placement and
	// constraint solving (P2+P3 proper).
	Reform time.Duration
	// P4 covers concrete re-verification, minimization, and Type
	// classification.
	P4 time.Duration
	// Hybrid covers the directed-fuzzing fallback campaign (both arms plus
	// the replay confirmation); zero when the fallback did not run.
	Hybrid time.Duration
	// P1Cached/P2Cached/StaticCached/AbsintCached/HybridCached report
	// whether the corresponding artifact came from a cache instead of
	// being recomputed.
	P1Cached     bool
	P2Cached     bool
	StaticCached bool
	AbsintCached bool
	HybridCached bool
}

// PoCGenerated reports whether a reformed PoC was produced (the poc' column
// of Table II).
func (r *Report) PoCGenerated() bool { return len(r.PoCPrime) > 0 }

// Verified reports whether OCTOPOCS reached a sound verdict (the
// verification column of Table II).
func (r *Report) Verified() bool { return r.Verdict != VerdictFailure }

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s: %s (%s) reason=%q ep=%s poc'=%v",
		r.Pair, r.Verdict, r.Type, string(r.Reason), r.Ep, r.PoCGenerated())
}
