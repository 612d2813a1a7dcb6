// Package fuzz implements the two greybox-fuzzing baselines OCTOPOCS is
// compared against in Table V: a coverage-guided fuzzer with AFLFast power
// schedules and a directed fuzzer with AFLGo-style distance annealing. Both
// run MIR binaries in the concrete VM with edge-coverage instrumentation
// and deterministic, seeded randomness. They are the alternatives the
// paper measures P2's guiding-input generation against.
//
// Concurrency: a single campaign shard is confined to one goroutine (its
// RNG and corpus are unsynchronized); multi-shard campaigns run independent
// shards on Config.Workers goroutines and merge results deterministically —
// the same Config.Seed yields byte-identical results at any worker count.
package fuzz

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"octopocs/internal/isa"
	"octopocs/internal/vm"
)

// MapSize is the coverage bitmap size (entries), as in AFL.
const MapSize = 1 << 16

// Target is the binary under test plus the success predicate: a crash
// inside the shared vulnerable code ℓ verifies the propagated
// vulnerability.
type Target struct {
	Prog *isa.Program
	// Lib is ℓ; a crash whose innermost frame is in Lib counts.
	Lib map[string]bool
	// MaxSteps bounds each execution (also the hang detector).
	MaxSteps int64
}

// Span marks a half-open byte range [Start, Start+Len) of the input.
type Span struct {
	Start int
	Len   int
}

// Config tunes a campaign.
type Config struct {
	// Seeds is the initial corpus (the original PoC, typically).
	Seeds [][]byte
	// MaxExecs is the execution budget — the analog of the paper's 20 h
	// wall-clock cap.
	MaxExecs int64
	// Seed seeds the PRNG; campaigns are deterministic given a seed.
	Seed int64
	// MaxInputLen bounds generated inputs.
	MaxInputLen int
	// Frozen lists input regions the mutator must preserve (the P1 bunch
	// offsets: the propagated crash primitive). With a non-empty mask the
	// mutator only applies length-preserving edits and restores frozen
	// spans afterwards, so only reformable regions mutate.
	Frozen []Span
	// Shards splits MaxExecs across this many independent sub-campaigns
	// with derived PRNG seeds. The schedule unit is the shard, not the
	// goroutine, so results do not depend on Workers. 0 or 1 means one
	// shard with the legacy single-campaign behavior.
	Shards int
	// Workers bounds the goroutines running shards (0 means 1). Purely a
	// throughput knob: any value yields byte-identical results.
	Workers int
}

func (c *Config) defaults() {
	if c.MaxExecs <= 0 {
		c.MaxExecs = 200_000
	}
	if c.MaxInputLen <= 0 {
		c.MaxInputLen = 512
	}
	if len(c.Seeds) == 0 {
		c.Seeds = [][]byte{{0}}
	}
}

// Result reports a campaign.
type Result struct {
	// Found reports whether a verifying crash was produced.
	Found bool
	// Crash is the crashing input when Found.
	Crash []byte
	// Execs is the number of executions performed.
	Execs int64
	// QueueLen is the final number of interesting seeds (summed over all
	// completed shards when no crash was found, the winning shard's queue
	// otherwise).
	QueueLen int
	// CrashLoc is where the verifying crash fired.
	CrashLoc isa.Loc
	// WinnerShard is the index of the shard that found the crash, or -1.
	WinnerShard int
}

// seedInfo is one queue entry with its schedule bookkeeping.
type seedInfo struct {
	data []byte
	// pathID is the hash of the execution's coverage signature.
	pathID uint64
	// fuzzed counts how many times this seed was selected (AFLFast s(i)).
	fuzzed int
	// dist is the AFLGo seed distance (mean block distance to target).
	dist float64
}

// harness drives executions with coverage instrumentation. It owns the
// per-exec scratch state and one VM it resets for every exec, so an exec
// allocates next to nothing and hashes nothing.
//
// Every block of the program has a dense number: functions in name order,
// blocks in index order within each. ids, dist and seen are indexed by it,
// and ascending numbers are ascending (function name, block) pairs.
type harness struct {
	target *Target
	m      *vm.Machine
	// virgin is the global coverage map of hit-count buckets seen.
	virgin [MapSize]uint8
	// hits is the current exec's edge hit-count map. Only the entries
	// listed in touched are nonzero, and the fold re-zeroes exactly those.
	hits    [MapSize]uint32
	touched []uint32
	// prev is the previous block's shifted id (AFL's edge hashing).
	prev uint32
	// first[fn.Index] is the dense number of fn's block 0.
	first []uint32
	// ids holds each block's blockID.
	ids []uint32
	// dist holds each block's AFLGo distance, noDist where it has none;
	// nil unless the campaign is directed.
	dist []float64
	// seen[n] == epoch marks block n entered in the current exec, and
	// visited lists those blocks in first-entry order; both are kept only
	// for directed campaigns. Bumping epoch empties the set.
	seen    []uint32
	epoch   uint32
	visited []uint32
	hooks   vm.Hooks
	// pathFreq counts executions per path signature (AFLFast f(i)).
	pathFreq map[uint64]int64
	execs    int64
}

// noDist marks a block with no distance to the target; real distances are
// never negative.
const noDist = -1

// newHarness builds a harness for t. A non-nil blockDist makes the
// campaign directed: every exec records the blocks it entered, and
// blockDist gives each block's distance, asked once per block here.
func newHarness(t *Target, blockDist func(fn string, b int) (float64, bool)) *harness {
	h := &harness{target: t, pathFreq: make(map[uint64]int64)}
	funcs := slices.Clone(t.Prog.Funcs)
	slices.SortFunc(funcs, func(a, b *isa.Function) int { return strings.Compare(a.Name, b.Name) })
	h.first = make([]uint32, len(funcs))
	for _, f := range funcs {
		h.first[f.Index] = uint32(len(h.ids))
		for b := range f.Blocks {
			h.ids = append(h.ids, blockID(f.Name, b))
			if blockDist != nil {
				d, ok := blockDist(f.Name, b)
				if !ok {
					d = noDist
				}
				h.dist = append(h.dist, d)
			}
		}
	}
	if blockDist != nil {
		h.seen = make([]uint32, len(h.ids))
	}
	h.hooks.OnBlock = h.onBlock
	h.m = vm.New(t.Prog, vm.Config{MaxSteps: t.MaxSteps, Hooks: &h.hooks})
	return h
}

// onBlock counts the edge into block b of fn.
func (h *harness) onBlock(fn *isa.Function, b int) {
	n := h.first[fn.Index] + uint32(b)
	cur := h.ids[n]
	i := (h.prev ^ cur) & (MapSize - 1)
	if h.hits[i] == 0 {
		h.touched = append(h.touched, i)
	}
	h.hits[i]++
	h.prev = cur >> 1
	if h.seen != nil && h.seen[n] != h.epoch {
		h.seen[n] = h.epoch
		h.visited = append(h.visited, n)
	}
}

// clearVisited empties the exec's block set in O(1): it bumps the epoch,
// and only when the epoch wraps to zero, where stamps from 2^32 execs ago
// would read as current, does it zero the stamps.
func (h *harness) clearVisited() {
	h.visited = h.visited[:0]
	h.epoch++
	if h.epoch == 0 {
		clear(h.seen)
		h.epoch = 1
	}
}

// bucket classifies a hit count the way AFL does.
func bucket(n uint32) uint8 {
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1
	case n == 2:
		return 2
	case n == 3:
		return 4
	case n <= 7:
		return 8
	case n <= 15:
		return 16
	case n <= 31:
		return 32
	case n <= 127:
		return 64
	default:
		return 128
	}
}

// execResult summarizes one run.
type execResult struct {
	newCov  bool
	pathID  uint64
	crashed bool
	loc     isa.Loc
}

// run executes one input on the reset machine and folds its coverage into
// the global state.
func (h *harness) run(input []byte) execResult {
	h.execs++
	h.clearVisited()
	h.m.Reset(input)
	out := h.m.Run()

	var res execResult
	res.pathID, res.newCov = h.fold()
	h.pathFreq[res.pathID]++
	if out.Crashed() && out.CrashedIn(h.target.Lib) {
		res.crashed = true
		res.loc = out.Crash.Loc
	}
	return res
}

// fold ends an exec: it merges the hit counts into virgin, reporting the
// path signature and whether any bucket was new, and resets the per-exec
// edge state. Touched entries are visited in ascending index order, as a
// walk over the whole map would, so the signature does not depend on the
// order edges were first hit.
func (h *harness) fold() (pathID uint64, newCov bool) {
	slices.Sort(h.touched)
	var pathHash uint64 = 1469598103934665603 // FNV offset basis
	for _, i := range h.touched {
		n := h.hits[i]
		if n == 0 {
			continue
		}
		h.hits[i] = 0
		b := bucket(n)
		pathHash ^= uint64(i)*31 + uint64(b)
		pathHash *= 1099511628211
		if h.virgin[i]&b != b {
			h.virgin[i] |= b
			newCov = true
		}
	}
	h.touched = h.touched[:0]
	h.prev = 0
	return pathHash, newCov
}

// blockID hashes a block identity into a stable 32-bit id.
func blockID(fn string, b int) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(fn); i++ {
		h = (h ^ uint32(fn[i])) * 16777619
	}
	return (h ^ uint32(b)*2654435761) | 1
}

// campaign is the common fuzzing loop for one shard; the energy callback
// implements the scheduler difference between AFLFast and AFLGo. A non-nil
// stop aborts the shard early (only used when a lower-indexed shard has
// already won, so an aborted shard's result is never consumed).
func campaign(t *Target, cfg Config, rng *rand.Rand,
	blockDist func(fn string, b int) (float64, bool),
	energy func(s *seedInfo, h *harness, progress float64) int,
	stop func() bool,
) *Result {
	cfg.defaults()
	h := newHarness(t, blockDist)
	var queue []*seedInfo

	admit := func(data []byte, er execResult) {
		info := &seedInfo{data: append([]byte(nil), data...), pathID: er.pathID}
		if h.dist != nil {
			info.dist = h.seedDist()
		}
		queue = append(queue, info)
	}

	// Dry-run the seeds.
	for _, s := range cfg.Seeds {
		er := h.run(s)
		if er.crashed {
			return &Result{Found: true, Crash: s, Execs: h.execs, QueueLen: len(queue), CrashLoc: er.loc}
		}
		admit(s, er)
	}

	mut := newMutator(rng, cfg.MaxInputLen, cfg.Frozen)
	for h.execs < cfg.MaxExecs {
		// Pick the next seed round-robin; energy decides how many
		// mutants it spawns this cycle.
		for qi := 0; qi < len(queue) && h.execs < cfg.MaxExecs; qi++ {
			if stop != nil && stop() {
				return &Result{Execs: h.execs, QueueLen: len(queue), WinnerShard: -1}
			}
			s := queue[qi]
			progress := float64(h.execs) / float64(cfg.MaxExecs)
			n := energy(s, h, progress)
			s.fuzzed++
			for k := 0; k < n && h.execs < cfg.MaxExecs; k++ {
				var cand []byte
				if k < len(s.data)*2 {
					cand = mut.deterministic(s.data, k)
				} else {
					other := queue[rng.Intn(len(queue))].data
					cand = mut.havoc(s.data, other)
				}
				er := h.run(cand)
				if er.crashed {
					// cand is the mutator's buffer; the crash outlives it.
					crash := append([]byte(nil), cand...)
					return &Result{Found: true, Crash: crash, Execs: h.execs, QueueLen: len(queue), CrashLoc: er.loc}
				}
				if er.newCov {
					admit(cand, er)
				}
			}
		}
	}
	return &Result{Execs: h.execs, QueueLen: len(queue), WinnerShard: -1}
}

// shardSeed derives shard i's PRNG seed from the campaign seed with a
// splitmix64 finalizer, decorrelating the shard streams.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// runShards runs a campaign as Config.Shards independent sub-campaigns on
// Config.Workers goroutines and merges the results deterministically.
//
// The winner is the lowest-indexed shard that found a crash, independent of
// scheduling: shard i may abort early only once a shard with a smaller
// index has found (so every shard at or below the winner runs its full
// deterministic course), and Result.Execs sums exactly shards 0..winner.
// With one shard this reduces to the legacy single-campaign behavior,
// including using Config.Seed unmixed.
func runShards(t *Target, c Config,
	blockDist func(fn string, b int) (float64, bool),
	energy func(s *seedInfo, h *harness, progress float64) int,
) *Result {
	c.defaults()
	if c.Shards <= 1 {
		res := campaign(t, c, rand.New(rand.NewSource(c.Seed)), blockDist, energy, nil)
		if res.Found {
			res.WinnerShard = 0
		} else {
			res.WinnerShard = -1
		}
		return res
	}

	shards := c.Shards
	workers := c.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	base := c.MaxExecs / int64(shards)

	results := make([]*Result, shards)
	var next int64 = -1
	minFound := int64(shards) // lowest shard index that found a crash
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(shards) {
					return
				}
				sc := c
				sc.MaxExecs = base
				if i == 0 {
					sc.MaxExecs += c.MaxExecs % int64(shards)
				}
				stop := func() bool { return atomic.LoadInt64(&minFound) < i }
				rng := rand.New(rand.NewSource(shardSeed(c.Seed, int(i))))
				res := campaign(t, sc, rng, blockDist, energy, stop)
				results[i] = res
				if res.Found {
					for {
						cur := atomic.LoadInt64(&minFound)
						if i >= cur || atomic.CompareAndSwapInt64(&minFound, cur, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if w := int(minFound); w < shards {
		win := results[w]
		out := &Result{
			Found:       true,
			Crash:       win.Crash,
			CrashLoc:    win.CrashLoc,
			QueueLen:    win.QueueLen,
			Execs:       win.Execs,
			WinnerShard: w,
		}
		for i := 0; i < w; i++ {
			out.Execs += results[i].Execs
		}
		return out
	}
	out := &Result{WinnerShard: -1}
	for _, r := range results {
		out.Execs += r.Execs
		out.QueueLen += r.QueueLen
	}
	return out
}
