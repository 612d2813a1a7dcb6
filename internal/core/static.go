package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"octopocs/internal/absint"
	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/faultinject"
	"octopocs/internal/mirstatic"
	"octopocs/internal/symex"
)

// staticEnabled resolves whether the static pre-analysis runs for a pair:
// a per-pair override wins, then the pipeline configuration.
func (p *Pipeline) staticEnabled(pair *Pair) bool {
	if pair.StaticPrune != nil {
		return *pair.StaticPrune
	}
	return p.cfg.StaticPrune
}

// staticKey derives the content address of the static pre-analysis artifact:
// a pure function of the T program text. The fixed "|absint:true" suffix
// keeps keys byte-identical to those of stores written while the analysis
// could also be computed without the absint folds.
func staticKey(pair *Pair) string {
	h := sha256.New()
	io.WriteString(h, asm.Format(pair.T))
	io.WriteString(h, "|absint:true")
	return "ps:" + hex.EncodeToString(h.Sum(nil))
}

// absintKey derives the content address of the abstract-interpretation
// artifact: a pure function of the T program text.
func absintKey(pair *Pair) string {
	h := sha256.New()
	io.WriteString(h, asm.Format(pair.T))
	return "ai:" + hex.EncodeToString(h.Sum(nil))
}

// phaseAbsint produces (or retrieves) the interval∧congruence value ranges
// of T. The boolean result reports a cache hit. The analysis is total —
// malformed opcodes widen to ⊤ instead of failing — so there is no error
// path.
func (p *Pipeline) phaseAbsint(ctx context.Context, pair *Pair) (*absint.Result, bool) {
	ai, hit, _ := cached(ctx, p, ClassAbsint, func() string { return absintKey(pair) }, nil, func() (*absint.Result, error) {
		ai := absint.Analyze(pair.T)
		p.cfg.Metrics.absintObserve(&ai.Summary)
		return ai, nil
	})
	return ai, hit
}

// phaseStatic produces (or retrieves) the static pre-analysis of T: the
// program check (isa's Check) with read-before-write reads collected as
// warnings, branch folding with dead-block elimination from the value
// ranges, dominator trees, and the may-call-anything reachability closure.
// ai is the phaseAbsint result when that phase ran; nil makes the analysis
// compute the ranges itself. The boolean result reports a cache hit. A
// failed check is a hard error — a malformed T cannot be verified soundly
// by any later phase either.
func (p *Pipeline) phaseStatic(ctx context.Context, pair *Pair, ai *absint.Result) (*mirstatic.Analysis, bool, error) {
	return cached(ctx, p, ClassStatic, func() string { return staticKey(pair) }, nil, func() (*mirstatic.Analysis, error) {
		if err := p.cfg.Faults.Err(faultinject.CoreStatic); err != nil {
			return nil, fmt.Errorf("pair %s: static pre-analysis of T: %w", pair.Name, err)
		}
		sa, err := mirstatic.Analyze(pair.T, ai)
		if err != nil {
			return nil, fmt.Errorf("pair %s: static pre-analysis of T: %w", pair.Name, err)
		}
		p.cfg.Metrics.staticObserve(&sa.Summary)
		return sa, nil
	})
}

// prunerOf adapts an optional analysis to the cfg.Pruner interface without
// producing a non-nil interface around a nil pointer.
func prunerOf(sa *mirstatic.Analysis) cfg.Pruner {
	if sa == nil {
		return nil
	}
	return sa
}

// oracleOf adapts optional value ranges to the symex.StaticOracle interface
// without producing a non-nil interface around a nil pointer.
func oracleOf(ai *absint.Result) symex.StaticOracle {
	if ai == nil {
		return nil
	}
	return ai
}
