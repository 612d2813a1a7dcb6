package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"octopocs/internal/absint"
	"octopocs/internal/cfg"
	"octopocs/internal/expr"
	"octopocs/internal/faultinject"
	"octopocs/internal/hybrid"
	"octopocs/internal/isa"
	"octopocs/internal/journal"
	"octopocs/internal/mirstatic"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
	"octopocs/internal/taint"
	"octopocs/internal/telemetry"
	"octopocs/internal/vm"
)

// Config tunes the pipeline. The zero value gives the paper's defaults;
// the ablation switches exist for the Table III/IV experiments.
type Config struct {
	// Theta is the loop-iteration bound θ (default 120, § IV-B).
	Theta int
	// MaxSteps is the per-run instruction budget.
	MaxSteps int64
	// SatBudget is the per-check solver budget.
	SatBudget int64
	// ContextFree disables context-aware taint analysis (Table III
	// baseline).
	ContextFree bool
	// StaticCFGOnly disables dynamic CFG refinement (§ IV-B discusses
	// using the static CFG as a fallback option).
	StaticCFGOnly bool
	// StaticPrune enables the static pre-analysis of T before P2: the MIR
	// verifier, constant folding with dead-block elimination, and dominator
	// computation. When the verified T provably cannot reach ep — even with
	// every unresolved indirect call over-approximated as may-call-anything
	// — the pipeline short-circuits to a sound statically-unreachable
	// verdict without running symbolic execution; otherwise the pruned CFG
	// view is fed to the distance maps and the symex frontier so provably
	// dead branches are never scheduled. Pruning never changes a verdict or
	// the poc' bytes: a statically dead direction is semantically
	// infeasible, so the only thing skipped is its SAT refutation.
	StaticPrune bool
	// Absint enables the abstract-interpretation value-range layer: a
	// whole-program interval∧congruence analysis of T whose branch proofs
	// are consulted by the symbolic executor before the solver ever sees a
	// feasibility query (a proved branch is discharged with zero SAT
	// checks), and — when StaticPrune is also on — strengthen the static
	// pre-analysis beyond constant propagation (parity guards after
	// even-stride loops, width-bounded loads). Like StaticPrune, the layer
	// never changes a verdict or the poc' bytes: the oracle's proofs hold on
	// every concrete execution, so only the SAT checks differ.
	Absint bool
	// HybridFuzz enables the directed-fuzzing fallback (internal/hybrid):
	// when symbolic execution ends θ-exhausted (loop-dead) or out of solver
	// budget — the two outcomes where the failure is a bound of the
	// analysis, not a proof about T — a deterministic campaign seeded with
	// the partially-solved poc' and the original PoC, masked by the P1
	// bunch offsets and annealed toward ep with P2's distance maps, tries
	// to produce the crash symex could not reach. A campaign crash is
	// replayed on the concrete VM before it is reported, and only upgrades
	// those two failure outcomes; sound verdicts are never revisited.
	HybridFuzz bool
	// SymexWorkers is the number of explorer goroutines of the P2/P3
	// directed frontier engine; 0 (default) and 1 both mean one explorer.
	// Every value produces the same verdict and poc' bytes (the frontier
	// commit protocol is deterministic); only wall time and Stats differ.
	SymexWorkers int
	// Metrics, when non-nil, receives engine counters (VM, symbolic
	// executor, solver) and every phase's latency from every run. Leave nil
	// to disable engine instrumentation entirely; the hot paths then
	// contain no telemetry calls at all.
	Metrics *Metrics
	// Retry bounds the per-phase retry loop for transient faults (injected
	// SAT failures, recovered worker panics). The zero value retries
	// DefaultRetryMax times; Max < 0 disables retries.
	Retry RetryPolicy
	// Faults, when non-nil, injects the scheduled faults at every named
	// injection point threaded through the pipeline: the solver, the symex
	// engines, the artifact caches, and the static pre-analysis. Nil in
	// production — every Fire call on a nil injector is a no-op.
	Faults *faultinject.Injector
}

// Pipeline verifies pairs. Create with New. A Pipeline holds no per-run
// state, so one instance may verify many pairs concurrently. Artifact
// caches are attached per class with SetCaches and must be
// concurrency-safe.
type Pipeline struct {
	cfg Config
	// caches holds the artifact cache of each class; see SetCaches.
	caches map[string]Cache
	// satCache memoizes satisfiability verdicts (solver.DefaultCacheEntries
	// of them) across every feasibility check of all phases and all
	// concurrent verifications sharing this pipeline. Cached verdicts are
	// identical to fresh ones, so its size is not a setting.
	satCache *solver.Cache
}

// padByte fills the poc' bytes no constraint pins.
const padByte = 0

// New returns a pipeline with the given configuration.
func New(cfg Config) *Pipeline {
	p := &Pipeline{cfg: cfg, satCache: solver.NewCache(solver.DefaultCacheEntries)}
	if cfg.Faults != nil && cfg.Metrics != nil {
		cfg.Faults.SetCounters(faultinject.Counters{
			Injected:  cfg.Metrics.FaultsInjected,
			Recovered: cfg.Metrics.FaultsRecovered,
			Retried:   cfg.Metrics.FaultsRetried,
			Degraded:  cfg.Metrics.FaultsDegraded,
		})
	}
	return p
}

// SatCache exposes the pipeline's shared satisfiability cache, which every
// pipeline has, so callers can surface its hit-rate statistics.
func (p *Pipeline) SatCache() *solver.Cache { return p.satCache }

// errParamMismatch aborts P2/P3 when T enters ep with context parameters
// that differ from the recorded S context (the Idx-10..12 mechanism).
var errParamMismatch = errors.New("ep context parameter mismatch")

// inputSlack is added to len(poc) for the symbolic poc' size, making room
// for a longer guiding prefix in T.
const inputSlack = 64

// FindEp runs the preprocessing step alone: crash S with the PoC and
// return the entry point of ℓ (the bottom-most ℓ function on the crash
// backtrace).
func (p *Pipeline) FindEp(pair *Pair) (string, error) {
	_, ep, err := p.crashEp(context.Background(), pair)
	return ep, err
}

// crashEp is preprocessing: crash S with the PoC and find ep, the
// bottom-most ℓ function on the crash backtrace.
func (p *Pipeline) crashEp(ctx context.Context, pair *Pair) (*vm.Crash, string, error) {
	out := p.runConcrete(ctx, pair.S, pair.PoC, pair.MaxSteps)
	if out.Status == vm.StatusStopped {
		return nil, "", ctxErr(ctx)
	}
	if !out.Crashed() {
		return nil, "", fmt.Errorf("pair %s: poc does not crash S (%s)", pair.Name, out)
	}
	ep, ok := epFromBacktrace(out.Crash.Backtrace, pair.Lib)
	if !ok {
		return nil, "", fmt.Errorf("pair %s: no ℓ function on the S crash backtrace", pair.Name)
	}
	return out.Crash, ep, nil
}

// Verify runs the full pipeline on one pair.
func (p *Pipeline) Verify(pair *Pair) (*Report, error) {
	return p.VerifyContext(context.Background(), pair)
}

// VerifyContext runs the full pipeline on one pair under a context. When
// the context is cancelled or its deadline passes, the run stops
// cooperatively mid-phase — the stop signal is threaded through the
// concrete VM, the taint run, and every symbolic step loop — and the
// method returns the context's error.
//
// When ctx carries a journal.Recorder (journal.With), every phase emits
// its decision events into it and the run closes with a verdict (or
// job.error) event whose evidence attribute links the verdict to the
// deterministic events that produced it.
func (p *Pipeline) VerifyContext(ctx context.Context, pair *Pair) (*Report, error) {
	rec := journal.FromContext(ctx)
	rec.Emit(journal.EvJobStart, journal.Attrs{"pair": pair.Name})
	rep, err := p.verifyCtx(ctx, pair, rec)
	if err != nil {
		rec.EmitFinal(journal.EvJobError, journal.Attrs{"err": err.Error()})
		return rep, err
	}
	attrs := journal.Attrs{"verdict": rep.Verdict.String(), "type": rep.Type.String()}
	if rep.Reason != ReasonNone {
		attrs["reason"] = string(rep.Reason)
	}
	if rep.Verdict == VerdictTriggered || rep.Verdict == VerdictTriggeredByFuzzing {
		attrs["poc_bytes"] = len(rep.PoCPrime)
		attrs["guiding_same"] = rep.GuidingSame
	}
	rec.EmitFinal(journal.EvVerdict, attrs)
	return rep, nil
}

// verifyCtx is the phase body of VerifyContext; the wrapper owns the
// journal's terminal event so every return path below is linked to its
// evidence at exactly one place.
func (p *Pipeline) verifyCtx(ctx context.Context, pair *Pair, rec *journal.Recorder) (*Report, error) {
	rep := &Report{Pair: pair.Name}
	root := telemetry.TraceFrom(ctx).Start("verify", nil)
	root.SetAttr("pair", pair.Name)
	defer root.End()

	// Preprocessing + P1 (cache-aware): crash S with the PoC, find ep on
	// the backtrace, extract crash primitives.
	var p1 *P1Artifact
	var err error
	rep.Timings.P1Cached, err = p.phase(ctx, root, "p1", &rep.Timings.P1, func(sp *telemetry.Span) (hit bool, err error) {
		p1, hit, err = p.phase1(ctx, pair, sp)
		return hit, err
	})
	if err != nil {
		return nil, err
	}
	rep.SCrash = p1.SCrash
	ep := p1.Ep
	rep.Ep = ep
	rep.Bunches = p1.Bunches
	rec.Emit(journal.EvP1Done, journal.Attrs{"ep": ep, "bunches": len(p1.Bunches), "cached": rep.Timings.P1Cached})

	// ep must exist in T at all (ℓ is shared, but be defensive).
	if pair.T.Func(ep) == nil {
		rep.Verdict, rep.Type, rep.Reason = VerdictNotTriggerable, TypeIII, ReasonEpMissing
		return rep, nil
	}

	// Abstract interpretation (cache-aware): the interval∧congruence value
	// ranges of T. A pure function of the program with no failure modes —
	// unknown opcodes widen to ⊤ — so there is no degraded path to manage.
	var ai *absint.Result
	if p.cfg.Absint {
		rep.Timings.AbsintCached, _ = p.phase(ctx, root, "absint", &rep.Timings.Absint, func(sp *telemetry.Span) (hit bool, _ error) {
			ai, hit = p.phaseAbsint(ctx, pair)
			sp.SetAttr("proved_branches", ai.Summary.ProvedBranches)
			return hit, nil
		})
		rep.Absint = &ai.Summary
	}

	// Static pre-analysis (cache-aware): verify T, fold constants, prune
	// dead blocks, and — when even the may-call-anything over-approximation
	// of indirect calls cannot reach ep — short-circuit to the sound
	// statically-unreachable verdict with zero symbolic execution.
	var sa *mirstatic.Analysis
	if p.staticEnabled(pair) {
		rep.Timings.StaticCached, err = p.phase(ctx, root, "static", &rep.Timings.Static, func(sp *telemetry.Span) (hit bool, err error) {
			sa, hit, err = p.phaseStatic(ctx, pair, ai)
			if sa != nil {
				sp.SetAttr("dead_blocks", sa.Summary.DeadBlocks)
			}
			return hit, err
		})
		if err != nil {
			if !faultinject.IsDegraded(err) {
				return nil, err
			}
			// Graceful degradation: the pipeline is complete without the
			// static layer — pruning only skips SAT refutations of
			// semantically infeasible directions — so an injected analysis
			// failure falls back to the unpruned CFG view. The verdict is
			// unchanged; only Timings and the pruned-branch counters differ.
			telemetry.Logger(ctx).Warn("static pre-analysis degraded; continuing unpruned",
				"pair", pair.Name, "err", err.Error())
			attrs := journal.Attrs{"phase": "static", "fallback": "unpruned-cfg"}
			if point, _, ok := faultinject.Describe(err); ok {
				attrs["point"] = string(point)
			}
			rec.Emit(journal.EvFaultDegraded, attrs)
			sa = nil
		}
		if sa != nil {
			rep.Static = &sa.Summary
			rec.Emit(journal.EvStaticDone, journal.Attrs{
				"cached":      rep.Timings.StaticCached,
				"dead_blocks": sa.Summary.DeadBlocks,
				"folded":      sa.Summary.FoldedBranches,
				"regions":     sa.Summary.DeadRegions,
				"reachable":   sa.Summary.ReachableFuncs,
			})
			mirstatic.RecordProofs(rec, sa)
			if sa.EpUnreachable(ep) {
				p.cfg.Metrics.staticShortCircuit()
				rec.Emit(journal.EvStaticShortCircuit, journal.Attrs{"ep": ep})
				rep.Verdict, rep.Type, rep.Reason = VerdictNotTriggerable, TypeIII, ReasonStaticUnreachable
				return rep, nil
			}
		}
	}

	// P2 preparation (cache-aware): backward path finding over T's CFG.
	// Indirect-call edges are invisible statically; the dynamic CFG adds
	// edges observed by a bounded symbolic exploration, matching § IV-B
	// ("a dynamic CFG is generated with symbolic execution"). Discovery is
	// partial — when it misses the edge to ep, verification fails (the
	// Idx-15 angr analog) rather than risking an unsound not-triggerable
	// verdict.
	var prep *P2Artifact
	rep.Timings.P2Cached, err = p.phase(ctx, root, "p2_prep", &rep.Timings.P2Prep, func(sp *telemetry.Span) (hit bool, err error) {
		prep, hit, err = p.phase2Prep(ctx, pair, ep, sa, ai, sp)
		return hit, err
	})
	if err != nil {
		return nil, err
	}
	rec.Emit(journal.EvP2Done, journal.Attrs{"cached": rep.Timings.P2Cached, "reachable": prep.Dist != nil})
	if prep.Dist == nil {
		if err := prep.Graph.CheckResolvable(ep); err != nil {
			// The Idx-15 case: the CFG tool cannot rule reachability
			// out, so no sound verdict exists.
			rep.Verdict, rep.Type, rep.Reason = VerdictFailure, TypeFailure, ReasonCFGUnresolved
			return rep, nil
		}
		// Case (ii): ep is never called in T.
		rep.Verdict, rep.Type, rep.Reason = VerdictNotTriggerable, TypeIII, ReasonEpNotCalled
		return rep, nil
	}

	// P2 + P3: directed symbolic execution with bunch placement.
	rec.Emit(journal.EvSymexStart, journal.Attrs{"ep": ep, "input_size": p.symInputSize(pair)})
	var pocPrime, partial []byte
	var stats symex.Stats
	var reason Reason
	_, err = p.phase(ctx, root, "reform", &rep.Timings.Reform, func(sp *telemetry.Span) (_ bool, err error) {
		pocPrime, partial, stats, reason, err = p.reform(ctx, pair, ep, prep.Dist, p1.Bunches, prunerOf(sa), oracleOf(ai), sp)
		return false, err
	})
	if err != nil {
		return nil, err
	}
	rep.Stats = stats
	if reason != ReasonNone {
		// Hybrid fallback: a θ-exhaustion or solver-budget outcome is a
		// bound of the analysis, not a proof about T — exactly the two
		// outcomes a directed fuzzing campaign may still resolve. Sound
		// reasons (unsat, program-dead, param-mismatch, ep-not-called)
		// never reach the campaign.
		if p.cfg.HybridFuzz && hybridEligible(reason) {
			var hout *hybrid.Outcome
			rep.Timings.HybridCached, _ = p.phase(ctx, root, "hybrid", &rep.Timings.Hybrid, func(sp *telemetry.Span) (hit bool, _ error) {
				hout, hit = p.phaseHybrid(ctx, pair, ep, prep.Dist, p1.Bunches, partial, reason)
				sp.SetAttr("rescued", hout.Rescued)
				return hit, nil
			})
			rep.Hybrid = hout
			if hout.Rescued {
				rep.PoCPrime = append([]byte(nil), hout.PoCPrime...)
				crashed, p4err := p.phase4(ctx, pair, rep, VerdictTriggeredByFuzzing, root, rec)
				if p4err != nil {
					return nil, p4err
				}
				if crashed {
					// Keep the symex failure reason as provenance: it
					// records why the fallback had to run.
					rep.Reason = reason
					return rep, nil
				}
				// The replay-confirmed crash did not reproduce — a
				// corrupted outcome; fall through to the symex verdict.
				rep.PoCPrime = nil
			}
		}
		switch reason {
		case ReasonProgramDead, ReasonLoopDead, ReasonParamMismatch, ReasonUnsat, ReasonEpNotCalled:
			rep.Verdict, rep.Type, rep.Reason = VerdictNotTriggerable, TypeIII, reason
		default:
			rep.Verdict, rep.Type, rep.Reason = VerdictFailure, TypeFailure, reason
		}
		return rep, nil
	}
	rep.PoCPrime = pocPrime

	// P4: verify the propagated vulnerability with poc'.
	crashed, err := p.phase4(ctx, pair, rep, VerdictTriggered, root, rec)
	if err != nil {
		return nil, err
	}
	if !crashed {
		rep.Verdict, rep.Type, rep.Reason = VerdictFailure, TypeFailure, ReasonNoCrash
	}
	return rep, nil
}

// phase runs one pipeline phase under the pipeline's one instrumentation
// site: the span name under root, the retry of transient faults, the span's
// cached attribute, and the phase's wall time into *took and into the
// phase's octopocs_phase_seconds series. name is one of Phases. fn reports
// whether its artifact came from the cache; it may set result attributes
// on sp and parent child spans to it.
func (p *Pipeline) phase(ctx context.Context, root *telemetry.Span, name string, took *time.Duration, fn func(sp *telemetry.Span) (cached bool, err error)) (bool, error) {
	t0 := time.Now()
	sp := telemetry.TraceFrom(ctx).Start(name, root)
	var hit bool
	err := p.retryTransient(ctx, name, func() (err error) {
		hit, err = fn(sp)
		return err
	})
	sp.SetAttr("cached", hit)
	sp.End()
	*took = time.Since(t0)
	p.cfg.Metrics.observePhase(name, *took)
	return hit, err
}

// cached is the pipeline's one artifact-cache path. With no cache attached
// to class it only runs compute, and the key is never derived. Otherwise it
// derives the key, reads through cacheGet and journals the probe. A hit of
// type T that valid accepts (nil accepts every hit) is returned as is. On a
// miss or a rejected hit compute runs, and its artifact is stored through
// cachePut only when compute succeeds: an error, including the one a
// cancelled computation returns, never populates the cache.
func cached[T any](ctx context.Context, p *Pipeline, class string, key func() string, valid func(T) bool, compute func() (T, error)) (T, bool, error) {
	c := p.caches[class]
	if c == nil {
		art, err := compute()
		return art, false, err
	}
	k := key()
	v, hit := p.cacheGet(c, k)
	journal.FromContext(ctx).Emit(journal.EvCacheProbe, journal.Attrs{"phase": classPhase[class], "key": k, "hit": hit})
	if art, ok := v.(T); hit && ok && (valid == nil || valid(art)) {
		return art, true, nil
	}
	art, err := compute()
	if err != nil {
		return art, false, err
	}
	p.cachePut(c, k, art)
	return art, false, nil
}

// phase4 is the concrete verification tail shared by the reform path and
// the hybrid fallback: replay rep.PoCPrime on T, and on a crash inside ℓ
// set the given verdict, minimize, and classify Type-I/Type-II. It reports
// whether the crash held; the caller owns the no-crash verdict.
func (p *Pipeline) phase4(ctx context.Context, pair *Pair, rep *Report, verdict Verdict, root *telemetry.Span, rec *journal.Recorder) (bool, error) {
	var crashed bool
	_, err := p.phase(ctx, root, "p4", &rep.Timings.P4, func(sp *telemetry.Span) (bool, error) {
		tOut := p.runConcrete(ctx, pair.T, rep.PoCPrime, pair.MaxSteps)
		if tOut.Status == vm.StatusStopped {
			return false, ctxErr(ctx)
		}
		rec.Emit(journal.EvP4Verify, journal.Attrs{
			"crashed": tOut.Crashed(),
			"in_lib":  tOut.Crashed() && tOut.CrashedIn(pair.Lib),
			"bytes":   len(rep.PoCPrime),
		})
		if !tOut.Crashed() || !tOut.CrashedIn(pair.Lib) {
			return false, nil
		}
		rep.TCrash = tOut.Crash
		rep.Verdict = verdict
		// The paper observes that poc' "did not contain unnecessary
		// bytes"; trim trailing padding while the crash is preserved.
		// Every candidate is re-verified concretely, so minimization
		// cannot invalidate the verdict.
		tr := telemetry.TraceFrom(ctx)
		msp := tr.Start("minimize", sp)
		before := len(rep.PoCPrime)
		rep.PoCPrime = p.minimize(ctx, pair, rep.PoCPrime, tOut.Crash)
		msp.SetAttr("bytes", len(rep.PoCPrime))
		msp.End()
		rec.Emit(journal.EvP4Minimize, journal.Attrs{"from": before, "to": len(rep.PoCPrime)})
		if err := ctx.Err(); err != nil {
			return false, err
		}

		// Type classification: Type-I when the original poc already
		// triggers T (its guiding input needs no reform).
		csp := tr.Start("classify", sp)
		defer csp.End()
		origOut := p.runConcrete(ctx, pair.T, pair.PoC, pair.MaxSteps)
		if origOut.Status == vm.StatusStopped {
			return false, ctxErr(ctx)
		}
		rep.GuidingSame = origOut.Crashed() && origOut.CrashedIn(pair.Lib)
		if rep.GuidingSame {
			rep.Type = TypeI
		} else {
			rep.Type = TypeII
		}
		rec.Emit(journal.EvP4Classify, journal.Attrs{"guiding_same": rep.GuidingSame})
		crashed = true
		return false, nil
	})
	return crashed, err
}

// phase1 produces (or retrieves) the S-side artifact: preprocessing plus
// the P1 taint run. The boolean result reports a cache hit.
func (p *Pipeline) phase1(ctx context.Context, pair *Pair, parent *telemetry.Span) (*P1Artifact, bool, error) {
	return cached(ctx, p, ClassP1, func() string { return p.p1Key(pair) }, nil, func() (*P1Artifact, error) {
		tr := telemetry.TraceFrom(ctx)
		sp := tr.Start("crash_s", parent)
		sCrash, ep, err := p.crashEp(ctx, pair)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tr.Start("taint", parent)
		sp.SetAttr("ep", ep)
		bunches, err := p.extractPrimitives(ctx, pair, ep)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("pair %s: P1: %w", pair.Name, err)
		}
		return &P1Artifact{Ep: ep, SCrash: sCrash, Bunches: bunches}, nil
	})
}

// phase2Prep produces (or retrieves) the T-side preparation artifact: the
// CFG with discovered indirect-call edges and the distance maps to ep. The
// boolean result reports a cache hit. When a static analysis is supplied the
// graph omits provably dead blocks and folded-away branch edges, so the
// distance maps never route through unreachable code.
func (p *Pipeline) phase2Prep(ctx context.Context, pair *Pair, ep string, sa *mirstatic.Analysis, ai *absint.Result, parent *telemetry.Span) (*P2Artifact, bool, error) {
	pruned, withRanges := sa != nil, sa != nil && sa.Ranges != nil
	key := func() string { return p.p2Key(pair, ep, pruned, withRanges) }
	return cached(ctx, p, ClassP2, key, nil, func() (*P2Artifact, error) {
		tr := telemetry.TraceFrom(ctx)
		graph := cfg.BuildPruned(pair.T, prunerOf(sa))
		if !p.cfg.StaticCFGOnly {
			sp := tr.Start("discover", parent)
			edges, derr := symex.Discover(pair.T, symex.NaiveConfig{
				InputSize:   p.discoverInputSize(pair),
				MaxSteps:    p.maxSteps(pair),
				SatBudget:   p.cfg.SatBudget,
				Stop:        ctx.Done(),
				Metrics:     p.cfg.Metrics.symexSink(),
				SolverCache: p.satCache,
				Prune:       prunerOf(sa),
				Oracle:      oracleOf(ai),
				Faults:      p.cfg.Faults,
			})
			for _, e := range edges {
				graph.ObserveCall(e.Site, e.Callee)
			}
			sp.End()
			// A transiently faulted discovery leaves a partial edge set: a
			// different dynamic CFG than the fault-free run would build.
			// Surface it so the caller retries the whole phase.
			if derr != nil {
				return nil, derr
			}
			// A cancelled discovery leaves a partial edge set: usable for
			// nothing, and in particular not cacheable — a cached artifact
			// must be a pure function of its key.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		art := &P2Artifact{Graph: graph, Ep: ep, Pruned: pruned, Absint: withRanges}
		if graph.Reachable(ep) {
			sp := tr.Start("distance_map", parent)
			art.Dist = graph.DistancesTo(ep)
			sp.End()
		}
		return art, nil
	})
}

// minimize shortens a verified poc' from the tail while the crash at the
// same location survives, first by halving and then byte by byte. A
// cancelled run fails the crash check, so cancellation simply stops the
// shrinking early with the best candidate so far.
func (p *Pipeline) minimize(ctx context.Context, pair *Pair, poc []byte, want *vm.Crash) []byte {
	stillCrashes := func(candidate []byte) bool {
		out := p.runConcrete(ctx, pair.T, candidate, pair.MaxSteps)
		return out.Crashed() && out.Crash.Loc == want.Loc
	}
	best := poc
	for len(best) > 0 {
		half := best[:len(best)/2]
		if !stillCrashes(half) {
			break
		}
		best = half
	}
	for len(best) > 0 && stillCrashes(best[:len(best)-1]) {
		best = best[:len(best)-1]
	}
	return best
}

// effectiveMaxSteps resolves the per-run instruction budget: a positive
// override (typically Pair.MaxSteps) wins, then the pipeline config, then
// vm.DefaultMaxSteps. Every budget consumer goes through this one helper.
func (p *Pipeline) effectiveMaxSteps(override int64) int64 {
	if override > 0 {
		return override
	}
	if p.cfg.MaxSteps > 0 {
		return p.cfg.MaxSteps
	}
	return vm.DefaultMaxSteps
}

func (p *Pipeline) maxSteps(pair *Pair) int64 { return p.effectiveMaxSteps(pair.MaxSteps) }

// discoverInputSize is the symbolic input size used by the dynamic-CFG
// discovery pass (always poc plus slack; the Pair.InputSize override
// applies only to the reform phase).
func (p *Pipeline) discoverInputSize(pair *Pair) int { return len(pair.PoC) + inputSlack }

// symInputSize is the symbolic size of poc' used by the reform phase.
func (p *Pipeline) symInputSize(pair *Pair) int {
	if pair.InputSize > 0 {
		return pair.InputSize
	}
	return len(pair.PoC) + inputSlack
}

func (p *Pipeline) runConcrete(ctx context.Context, prog *isa.Program, input []byte, maxSteps int64) *vm.Outcome {
	m := vm.New(prog, vm.Config{
		Input:    input,
		MaxSteps: p.effectiveMaxSteps(maxSteps),
		Stop:     ctx.Done(),
		Metrics:  p.cfg.Metrics.vmSink(),
	})
	return m.Run()
}

// journalSymexDone records the committed exploration outcome — kind, why
// and the committed frontier path, all deterministic for any worker count
// N >= 1 by the commit protocol — plus, as a separate nondeterministic
// event, the schedule-dependent resource counters.
func journalSymexDone(rec *journal.Recorder, res *symex.Result) {
	if rec == nil {
		return
	}
	attrs := journal.Attrs{"kind": res.Kind.String(), "entries": len(res.Entries), "path": symex.PathString(res.Path)}
	if res.Why != "" {
		attrs["why"] = res.Why
	}
	rec.Emit(journal.EvSymexDone, attrs)
	rec.Emit(journal.EvSymexStats, journal.Attrs{
		"steps":          res.Stats.Steps,
		"sat_checks":     res.Stats.SatChecks,
		"states":         res.Stats.States,
		"backtracks":     res.Stats.Backtracks,
		"pruned":         res.Stats.PrunedBranches,
		"sat_discharged": res.Stats.SatDischargedStatic,
		"workers":        res.Stats.Workers,
		"steals":         res.Stats.Steals,
	})
}

// ctxErr maps an observed stop back to the context's error, defaulting to
// context.Canceled for the (theoretical) race where the stop fired before
// the context recorded its error.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// extractPrimitives is P1: rerun S under the taint engine and materialize
// bunches.
func (p *Pipeline) extractPrimitives(ctx context.Context, pair *Pair, ep string) ([]BunchBytes, error) {
	eng := taint.NewEngine(taint.Config{
		Lib:          pair.Lib,
		Ep:           ep,
		ContextAware: !p.cfg.ContextFree,
	})
	m := vm.New(pair.S, vm.Config{
		Input:    pair.PoC,
		MaxSteps: p.maxSteps(pair),
		Hooks:    eng.Hooks(),
		Stop:     ctx.Done(),
		Metrics:  p.cfg.Metrics.vmSink(),
	})
	out := m.Run()
	if out.Status == vm.StatusStopped {
		return nil, ctxErr(ctx)
	}
	if !out.Crashed() {
		return nil, fmt.Errorf("S did not crash under taint instrumentation (%s)", out)
	}
	res := eng.Result()
	if len(res.Bunches) == 0 {
		return nil, errors.New("no crash primitives extracted (ep never entered)")
	}
	return materializeBunches(pair.PoC, res)
}

// reform is P2+P3: directed symbolic execution of T toward ep with bunch
// placement at each entry, then constraint solving into poc'. A non-nil
// error is returned for cancellation, for transient injected faults (so
// the caller's retry loop re-runs the phase instead of accepting a
// fault-altered verdict), and for real worker panics (which must fail the
// job explicitly, never degrade into a verdict); all other analysis
// failures degrade into Reason codes.
//
// The second byte slice is the partially-solved seed for the hybrid
// fallback: when exploration ends hybrid-eligible (loop-dead or budget)
// with path constraints in hand, the model of those constraints pins the
// bytes symex did manage to derive (magic values, checksums, gate
// preimages) so the fuzzing campaign starts past the gates it cannot
// guess. It is nil whenever the fallback is off, the reason is not
// eligible, or no constraints survived (the hard-error degrade path).
func (p *Pipeline) reform(ctx context.Context, pair *Pair, ep string, dist *cfg.Distances, bunches []BunchBytes, prune cfg.Pruner, oracle symex.StaticOracle, parent *telemetry.Span) ([]byte, []byte, symex.Stats, Reason, error) {
	inputSize := p.symInputSize(pair)
	tr := telemetry.TraceFrom(ctx)
	rec := journal.FromContext(ctx)
	ex := symex.New(pair.T, symex.Config{
		InputSize:   inputSize,
		MaxSteps:    p.maxSteps(pair),
		Theta:       p.cfg.Theta,
		SatBudget:   p.cfg.SatBudget,
		Target:      ep,
		Distances:   dist,
		Stop:        ctx.Done(),
		Metrics:     p.cfg.Metrics.symexSink(),
		Logger:      telemetry.Logger(ctx),
		Workers:     p.cfg.SymexWorkers,
		SolverCache: p.satCache,
		Prune:       prune,
		Oracle:      oracle,
		Faults:      p.cfg.Faults,
		Journal:     rec,
	})

	// The visitor below runs concurrently when SymexWorkers > 1; it only
	// touches state-local data, mutex-guarded trace spans, and placeSol,
	// whose Sat is safe for concurrent use.
	placeSol := solver.Solver{Budget: p.cfg.SatBudget, Metrics: p.cfg.Metrics.solverSink(), Cache: p.satCache, Faults: p.cfg.Faults, Journal: rec}
	visitor := func(entry symex.EpEntry, st *symex.State) (symex.Decision, error) {
		esp := tr.Start("ep_entry", parent)
		defer esp.End()
		esp.SetAttr("seq", entry.Seq)
		esp.SetAttr("file_pos", entry.FilePos)
		if entry.Seq > len(bunches) {
			return symex.Stop, nil
		}
		b := bunches[entry.Seq-1]
		// "OCTOPOCS executes ep in T with the same parameters as those
		// used in S": compare/pin the semantic context arguments.
		for _, idx := range pair.CtxArgs {
			if idx >= len(entry.Args) || idx >= len(b.Args) {
				continue
			}
			want := b.Args[idx]
			if got, ok := entry.Args[idx].IsConst(); ok {
				if got != want {
					return symex.Stop, errParamMismatch
				}
				continue
			}
			st.AddConstraint(expr.Bin(expr.OpEq, entry.Args[idx], expr.Const(want)))
		}
		// P3.1: bind the bunch at the current file position indicator.
		pos := entry.FilePos
		if int(pos)+len(b.Bytes) > inputSize {
			return symex.Stop, fmt.Errorf("bunch %d does not fit at position %d (input size %d)", b.Seq, pos, inputSize)
		}
		for i, bv := range b.Bytes {
			st.AddConstraint(expr.Bin(expr.OpEq,
				expr.Sym(int(pos)+i), expr.Const(uint64(bv))))
		}
		// Placement feasibility: a contradiction between the guiding
		// constraints and the crash primitive makes this path useless;
		// dying here lets directed execution backtrack to a longer or
		// different path (the paper's iterate-until-not-loop-dead
		// policy subsumed by decision reversal).
		ok, serr := placeSol.Sat(st.Constraints())
		if serr != nil && faultinject.IsTransient(serr) {
			// Ignoring the failed check would place the bunch on a path
			// the fault-free run might refute; abort so the phase retries.
			return symex.Stop, serr
		}
		if serr == nil && !ok {
			return symex.Infeasible, nil
		}
		if entry.Seq == len(bunches) {
			return symex.Stop, nil
		}
		return symex.Continue, nil
	}

	res, err := ex.Run(visitor)
	if err != nil {
		if errors.Is(err, symex.ErrStopped) {
			return nil, nil, symex.Stats{}, ReasonNone, ctxErr(ctx)
		}
		if errors.Is(err, errParamMismatch) {
			return nil, nil, symex.Stats{}, ReasonParamMismatch, nil
		}
		if faultinject.IsTransient(err) {
			return nil, nil, symex.Stats{}, ReasonNone, err
		}
		var pe *faultinject.PanicError
		if errors.As(err, &pe) {
			// A real (non-injected) worker panic: a bug, not a budget
			// exhaustion. Degrading it into a verdict would hide it.
			return nil, nil, symex.Stats{}, ReasonNone, err
		}
		telemetry.Logger(ctx).Warn("reform degraded to budget verdict",
			"pair", pair.Name, "err", err.Error())
		return nil, nil, symex.Stats{}, ReasonBudget, nil
	}
	journalSymexDone(rec, res)
	if !res.Reached() {
		switch res.Kind {
		case symex.KindInfeasible:
			return nil, nil, res.Stats, ReasonUnsat, nil
		case symex.KindProgramDead:
			return nil, nil, res.Stats, ReasonProgramDead, nil
		case symex.KindLoopDead:
			return nil, p.partialSeed(res.Constraints, inputSize, ReasonLoopDead), res.Stats, ReasonLoopDead, nil
		case symex.KindExited, symex.KindCrashed:
			return nil, nil, res.Stats, ReasonEpNotCalled, nil
		default:
			return nil, p.partialSeed(res.Constraints, inputSize, ReasonBudget), res.Stats, ReasonBudget, nil
		}
	}

	// P3.3: solve everything into concrete bytes.
	ssp := tr.Start("solve", parent)
	ssp.SetAttr("constraints", len(res.Constraints))
	sol := solver.Solver{Budget: p.cfg.SatBudget, Metrics: p.cfg.Metrics.solverSink(), Cache: p.satCache, Faults: p.cfg.Faults, Journal: rec}
	model, err := sol.Solve(res.Constraints)
	ssp.End()
	if err != nil {
		if errors.Is(err, solver.ErrUnsat) {
			rec.Emit(journal.EvSolverSolve, journal.Attrs{"constraints": len(res.Constraints), "status": "unsat"})
			return nil, nil, res.Stats, ReasonUnsat, nil
		}
		if faultinject.IsTransient(err) {
			return nil, nil, res.Stats, ReasonNone, err
		}
		rec.Emit(journal.EvSolverSolve, journal.Attrs{"constraints": len(res.Constraints), "status": "budget"})
		return nil, p.partialSeed(res.Constraints, inputSize, ReasonBudget), res.Stats, ReasonBudget, nil
	}
	rec.Emit(journal.EvSolverSolve, journal.Attrs{"constraints": len(res.Constraints), "status": "sat"})
	// The reformed PoC keeps its full symbolic length: trailing padding
	// may still be consumed by ℓ past the final ep entry (the symbolic
	// run stops there, so nothing constrains those bytes — but a
	// truncated file would turn an overflowing read into a harmless
	// short read).
	return model.Fill(inputSize, padByte), nil, res.Stats, ReasonNone, nil
}
