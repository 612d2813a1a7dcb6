package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"sort"

	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/faultinject"
	"octopocs/internal/vm"
)

// Cache stores phase artifacts under content-addressed keys. Implementations
// must be safe for concurrent use; the pipeline treats stored artifacts as
// immutable and shares them freely between verifications.
type Cache interface {
	// Get returns the artifact stored under key, if any.
	Get(key string) (any, bool)
	// Put stores an artifact under key, evicting at its discretion.
	Put(key string, v any)
}

// P1Artifact is the cached output of preprocessing plus phase P1: the S-side
// work of a verification. It is a pure function of the cache key inputs
// (S program text, poc bytes, ℓ, taint mode, step budget), so two pairs
// sharing the same S-side quadruple — the common case when one original
// package propagates into many targets — reuse one artifact.
type P1Artifact struct {
	// Ep is the entry point of ℓ found on the S crash backtrace.
	Ep string
	// SCrash is the crash S exhibits on the poc.
	SCrash *vm.Crash
	// Bunches are the materialized crash primitives.
	Bunches []BunchBytes
}

// P2Artifact is the cached phase-P2 preparation for one (T, ep) target: the
// CFG with dynamically discovered indirect-call edges and the backward
// distance maps toward ep. Dist is nil when ep is statically and dynamically
// unreachable; Graph is kept so the verdict logic can distinguish the
// unresolved-CFG failure from a sound not-triggerable verdict.
type P2Artifact struct {
	Graph *cfg.Graph
	// Dist holds the distances to Ep; nil when ep is unreachable.
	Dist *cfg.Distances
	// Ep is the target entry point the artifact was prepared for, and
	// Pruned records whether Graph was built over the statically pruned
	// CFG view. Both are already encoded in the cache key; they are
	// carried on the artifact so the disk codec can rebuild the graph
	// without access to the key's preimage.
	Ep     string
	Pruned bool
	// Absint records whether the pruned view was strengthened with
	// abstract-interpretation value ranges. Only meaningful when Pruned is
	// set; like Ep and Pruned it is carried for the disk codec.
	Absint bool
}

// Artifact-cache classes: the keys of the map handed to SetCaches, and the
// prefix of every key stored under that class.
const (
	ClassP1     = "p1" // preprocessing + P1 taint (*P1Artifact)
	ClassP2     = "p2" // P2 preparation: CFG and distance maps (*P2Artifact)
	ClassStatic = "ps" // static pre-analysis (*mirstatic.Analysis)
	ClassAbsint = "ai" // value ranges (*absint.Result)
	ClassHybrid = "hy" // fallback campaign outcome (*hybrid.Outcome)
)

// Classes lists every artifact class.
var Classes = []string{ClassP1, ClassP2, ClassStatic, ClassAbsint, ClassHybrid}

// classPhase names the phase owning each class, as journaled by cache.probe.
var classPhase = map[string]string{
	ClassP1:     "p1",
	ClassP2:     "p2_prep",
	ClassStatic: "static",
	ClassAbsint: "absint",
	ClassHybrid: "hybrid",
}

// SetCaches installs the artifact caches, keyed by class (see Classes). A
// class that is absent is not cached, and its keys are never derived.
// Artifacts put into a cache are never mutated afterward, so one cache may
// back any number of concurrent pipelines. Call before the first
// verification.
func (p *Pipeline) SetCaches(caches map[string]Cache) {
	p.caches = maps.Clone(caches)
}

// cacheGet reads an artifact through the fault injector: an injected
// cache-read failure degrades to a miss, so the phase recomputes the
// artifact it would have loaded — slower, never different.
func (p *Pipeline) cacheGet(c Cache, key string) (any, bool) {
	if p.cfg.Faults.Fire(faultinject.CoreCacheGet) {
		return nil, false
	}
	return c.Get(key)
}

// cachePut stores an artifact through the fault injector: an injected
// cache-write failure drops the write. Later verifications recompute
// instead of hitting; verdicts are unaffected because only complete
// artifacts are ever stored.
func (p *Pipeline) cachePut(c Cache, key string, v any) {
	if p.cfg.Faults.Fire(faultinject.CoreCachePut) {
		return
	}
	c.Put(key, v)
}

// p1Key derives the content address of the S-side artifact. Every input
// that influences the artifact participates: the S program (its assembled
// text), the poc bytes, the ℓ set (it selects ep and scopes the taint
// engine), the taint mode, and the effective step budget.
func (p *Pipeline) p1Key(pair *Pair) string {
	h := sha256.New()
	io.WriteString(h, asm.Format(pair.S))
	h.Write(pair.PoC)
	libs := make([]string, 0, len(pair.Lib))
	for fn := range pair.Lib {
		libs = append(libs, fn)
	}
	sort.Strings(libs)
	for _, fn := range libs {
		fmt.Fprintf(h, "|lib:%s", fn)
	}
	fmt.Fprintf(h, "|ctxfree:%v|steps:%d", p.cfg.ContextFree, p.maxSteps(pair))
	return "p1:" + hex.EncodeToString(h.Sum(nil))
}

// p2Key derives the content address of the T-side preparation artifact:
// the T program, the target ep, every knob the dynamic CFG discovery pass
// reads (symbolic input size, step budget, solver budget, and whether
// discovery is disabled outright), whether the graph was built over the
// statically pruned CFG view, and whether that view was strengthened with
// abstract-interpretation value ranges.
func (p *Pipeline) p2Key(pair *Pair, ep string, pruned, absint bool) string {
	h := sha256.New()
	io.WriteString(h, asm.Format(pair.T))
	fmt.Fprintf(h, "|ep:%s|static:%v|insize:%d|steps:%d|sat:%d|prune:%v|absint:%v",
		ep, p.cfg.StaticCFGOnly, p.discoverInputSize(pair), p.maxSteps(pair), p.cfg.SatBudget, pruned, absint)
	return "p2:" + hex.EncodeToString(h.Sum(nil))
}
