package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/expr"
	"octopocs/internal/fuzz"
	"octopocs/internal/hybrid"
	"octopocs/internal/journal"
	"octopocs/internal/solver"
)

// hybridSeed fixes the campaign RNG: the fallback must be a pure function
// of the pair (for the hy: artifact cache and for run-to-run determinism),
// so the seed is a constant rather than a knob.
const hybridSeed = 1

// hybridEligible reports whether a reform failure reason may be handed to
// the directed-fuzzing fallback. Only θ-exhaustion (loop-dead) and
// budget exhaustion qualify: both mean the analysis ran out of resources,
// not that it proved anything about T. Every other reason is either a
// sound not-triggerable argument (unsat, program-dead, param-mismatch,
// ep-not-called) that fuzzing must never override, or a structural failure
// (no-crash) the campaign could not repair.
func hybridEligible(r Reason) bool {
	return r == ReasonLoopDead || r == ReasonBudget
}

// partialSeed solves whatever constraints the failed exploration gathered
// into a concrete input — the partially-solved poc′ that seeds the hybrid
// campaign past the gates symex did manage to pass (magic bytes, checksum
// preimages, pinned counts). Best-effort: nil when the fallback is off,
// the reason is not eligible, no constraints survived, or the solve fails.
func (p *Pipeline) partialSeed(constraints []*expr.Expr, inputSize int, reason Reason) []byte {
	if !p.cfg.HybridFuzz || !hybridEligible(reason) || len(constraints) == 0 {
		return nil
	}
	sol := solver.Solver{Metrics: p.cfg.Metrics.solverSink(), Cache: p.satCache}
	model, err := sol.Solve(constraints)
	if err != nil {
		return nil
	}
	return model.Fill(inputSize, padByte)
}

// hyKey derives the content address of a hybrid-campaign outcome. Every
// input that influences the campaign participates: the T program, the
// target ep, the seeds (partial and original poc), the frozen bunch spans,
// and every exec/step/size budget. Workers is deliberately absent — shard
// results are byte-identical for any worker count.
func (p *Pipeline) hyKey(pair *Pair, ep string, c *hybrid.Campaign) string {
	h := sha256.New()
	io.WriteString(h, asm.Format(pair.T))
	fmt.Fprintf(h, "|ep:%s|execs:%d|steps:%d|insize:%d|seed:%d|shards:%d",
		ep, c.MaxExecs, c.MaxSteps, c.MaxInputLen, c.Seed, c.Shards)
	for _, s := range c.Seeds {
		fmt.Fprintf(h, "|seed:%d:", len(s))
		h.Write(s)
	}
	for _, sp := range c.Frozen {
		fmt.Fprintf(h, "|frozen:%d+%d", sp.Start, sp.Len)
	}
	return "hy:" + hex.EncodeToString(h.Sum(nil))
}

// phaseHybrid runs (or retrieves) the directed-fuzzing fallback campaign
// for a hybrid-eligible reform failure. The boolean result reports a cache
// hit. A cached outcome claiming a rescue is replayed on the concrete VM
// before it is trusted; a corrupted artifact (poc′ no longer crashing T
// inside ℓ) is discarded and the campaign recomputed, so cache damage can
// cost time but never a wrong verdict.
func (p *Pipeline) phaseHybrid(ctx context.Context, pair *Pair, ep string, dist *cfg.Distances, bunches []BunchBytes, partial []byte, reason Reason) (*hybrid.Outcome, bool) {
	rec := journal.FromContext(ctx)
	var seeds [][]byte
	if len(partial) > 0 {
		seeds = append(seeds, partial)
	}
	seeds = append(seeds, pair.PoC)
	frozen := make([]fuzz.Span, 0, len(bunches))
	for _, b := range bunches {
		if len(b.Bytes) == 0 {
			continue
		}
		frozen = append(frozen, fuzz.Span{Start: int(b.Start), Len: len(b.Bytes)})
	}
	c := &hybrid.Campaign{
		Prog:        pair.T,
		Lib:         pair.Lib,
		TargetFn:    ep,
		Dist:        dist,
		Seeds:       seeds,
		Frozen:      frozen,
		MaxExecs:    hybrid.DefaultMaxExecs,
		MaxSteps:    p.maxSteps(pair),
		MaxInputLen: p.symInputSize(pair),
		Seed:        hybridSeed,
		Shards:      hybrid.DefaultShards,
	}

	revalidate := func(o *hybrid.Outcome) bool {
		ok := hybrid.Revalidate(c, o)
		if !ok {
			p.cfg.Metrics.hybridRejected()
		}
		rec.Emit(journal.EvHybridConfirm, journal.Attrs{
			"confirmed": ok, "cached": true, "crash_loc": o.CrashLoc})
		return ok
	}
	out, hit, _ := cached(ctx, p, ClassHybrid, func() string { return p.hyKey(pair, ep, c) }, revalidate, func() (*hybrid.Outcome, error) {
		rec.Emit(journal.EvHybridStart, journal.Attrs{
			"reason": string(reason),
			"seeds":  len(seeds),
			"frozen": len(frozen),
			"execs":  c.MaxExecs,
		})
		out := c.Run()
		p.cfg.Metrics.hybridObserve(out)
		rec.Emit(journal.EvHybridDone, journal.Attrs{
			"rescued":    out.Rescued,
			"execs":      out.Execs,
			"masked_arm": out.MaskedArm,
			"winner":     out.WinnerShard,
			"crash_loc":  out.CrashLoc,
		})
		return out, nil
	})
	return out, hit
}
