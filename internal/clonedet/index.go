package clonedet

import (
	"errors"
	"fmt"
	"sync"

	"octopocs/internal/cfg"
	"octopocs/internal/isa"
	"octopocs/internal/mirstatic"
)

// Defaults for the retrieval knobs.
const (
	// DefaultMinScore is the per-function match threshold. Genuine clones
	// (even patched or constant-retuned variants) score well above it;
	// coincidental boilerplate overlap, down-weighted by shingle rarity,
	// stays well below.
	DefaultMinScore = 0.35
)

// Ranking-signal weights. Containment dominates because it is the signal
// that survives propagation edits (a patch inserted into the clone adds
// shingles to the target but removes few source shingles); the
// callgraph-context and CFG-shape terms break ties between structurally
// similar library routines.
const (
	weightContainment = 0.60
	weightContext     = 0.25
	weightShape       = 0.15
)

// Config tunes retrieval. The zero value gives the defaults.
type Config struct {
	// MinScore is the minimum combined score for a function match to count
	// toward a candidate; DefaultMinScore when 0, negative admits all.
	MinScore float64
	// TopK bounds the candidates returned per scan (0 = all).
	TopK int
	// Workers parallelizes Add and Scan internally; <= 1 is sequential.
	// Any value produces byte-identical results.
	Workers int
	// Metrics, when non-nil, receives retrieval counters, flushed once per
	// Add/Scan call.
	Metrics *Metrics
	// Cache, when non-nil, stores program fingerprints under their
	// content-addressed ci: keys (see FingerprintKey), so repeated index
	// builds and scans over the same programs — including across process
	// restarts, through the persistent artifact store — skip the
	// fingerprinting pass.
	Cache Cache
}

func (c Config) minScore() float64 {
	if c.MinScore == 0 {
		return DefaultMinScore
	}
	return c.MinScore
}

// Shape is the CFG-shape signature of one function: coarse structural
// counts that are cheap to compare and stable under register/constant
// rewrites. Loops counts back edges (successors that dominate their
// predecessor, via the mirstatic dominator tree).
type Shape struct {
	Blocks   int `json:"blocks"`
	Branches int `json:"branches"`
	Loops    int `json:"loops"`
	Calls    int `json:"calls"`
	Insts    int `json:"insts"`
}

// fnFP is the indexed form of one function: its shingle fingerprint, shape,
// and the merged fingerprints of its callgraph neighborhood.
type fnFP struct {
	name    string
	hashes  []uint64
	shape   Shape
	calleeU []uint64 // union of direct-callee fingerprints
	callerU []uint64 // union of caller fingerprints
}

// progFP fingerprints every function of one program.
type progFP struct {
	fns   []*fnFP
	byFn  map[string]*fnFP
	insts int
}

// fingerprintProgram computes per-function fingerprints, shapes, and
// callgraph-context unions for one linked program, over DefaultK-wide
// shingles.
func fingerprintProgram(prog *isa.Program) *progFP {
	g := cfg.Build(prog)
	p := &progFP{byFn: make(map[string]*fnFP, len(prog.Funcs))}
	callees := make(map[string][]string, len(prog.Funcs))
	for _, f := range prog.Funcs {
		fp := &fnFP{
			name:   f.Name,
			hashes: FingerprintFn(f, DefaultK),
			shape:  shapeOf(f, g),
		}
		for _, site := range g.Sites(f.Name) {
			callees[f.Name] = append(callees[f.Name], site.Targets...)
		}
		p.fns = append(p.fns, fp)
		p.byFn[f.Name] = fp
		p.insts += fp.shape.Insts
	}
	// Second pass: merge the neighborhood fingerprints. Callers are the
	// reverse edges of the same call sites.
	callers := make(map[string][]string, len(prog.Funcs))
	for _, f := range prog.Funcs {
		for _, t := range callees[f.Name] {
			callers[t] = append(callers[t], f.Name)
		}
	}
	for _, fp := range p.fns {
		for _, c := range callees[fp.name] {
			if n := p.byFn[c]; n != nil {
				fp.calleeU = mergeSorted(fp.calleeU, n.hashes)
			}
		}
		for _, c := range callers[fp.name] {
			if n := p.byFn[c]; n != nil {
				fp.callerU = mergeSorted(fp.callerU, n.hashes)
			}
		}
	}
	return p
}

// shapeOf derives the CFG-shape signature of f using the graph's successor
// lists and the dominator tree.
func shapeOf(f *isa.Function, g *cfg.Graph) Shape {
	s := Shape{Blocks: len(f.Blocks)}
	idom := mirstatic.Dominators(f)
	for bi, b := range f.Blocks {
		s.Insts += len(b.Insts)
		for i := range b.Insts {
			switch b.Insts[i].Op {
			case isa.OpCall, isa.OpCallInd:
				s.Calls++
			case isa.OpBr:
				s.Branches++
			}
		}
		for _, succ := range g.Succs(f.Name, bi) {
			if dominates(idom, succ, bi) {
				s.Loops++
			}
		}
	}
	return s
}

// dominates walks the idom tree upward from y looking for x (a node
// dominates itself; -1 entries dominate nothing).
func dominates(idom []int, x, y int) bool {
	for {
		if y == x {
			return true
		}
		if y < 0 || y >= len(idom) || idom[y] == y || idom[y] < 0 {
			return false
		}
		y = idom[y]
	}
}

// target is one indexed program.
type target struct {
	key  string
	prog *isa.Program
	fp   *progFP
}

// Index holds the fingerprinted target corpus. Create with NewIndex, fill
// with Add/AddAll, then Scan sources against it.
type Index struct {
	cfg     Config
	targets []*target
	keys    map[string]bool
	// df counts, per shingle hash, the number of indexed target functions
	// containing it: the document-frequency table behind the similarity
	// weights (rare shingles dominate, boilerplate is discounted).
	df map[uint64]int
}

// Target names one program to index or scan.
type Target struct {
	// Key identifies the program in candidates; unique per index.
	Key string
	// Prog is the linked program.
	Prog *isa.Program
}

// NewIndex returns an empty index.
func NewIndex(cfg Config) *Index {
	return &Index{cfg: cfg, keys: make(map[string]bool), df: make(map[uint64]int)}
}

// Add indexes one program.
func (ix *Index) Add(key string, prog *isa.Program) error {
	return ix.AddAll([]Target{{Key: key, Prog: prog}})
}

// AddAll indexes a batch of programs, fingerprinting them with Workers
// goroutines. The document-frequency merge runs in input order, so the
// resulting index is independent of the worker count.
func (ix *Index) AddAll(ts []Target) error {
	for _, t := range ts {
		if t.Prog == nil {
			return fmt.Errorf("clonedet: target %q has no program", t.Key)
		}
		if t.Key == "" {
			return errors.New("clonedet: target key must not be empty")
		}
		if ix.keys[t.Key] {
			return fmt.Errorf("clonedet: duplicate target key %q", t.Key)
		}
		ix.keys[t.Key] = true
	}
	fps := make([]*progFP, len(ts))
	ix.parallel(len(ts), func(i int) {
		fps[i] = ix.fingerprint(ts[i].Prog)
	})
	indexed := 0
	for i, t := range ts {
		ix.targets = append(ix.targets, &target{key: t.Key, prog: t.Prog, fp: fps[i]})
		for _, fn := range fps[i].fns {
			for _, h := range fn.hashes {
				ix.df[h]++
			}
		}
		indexed += len(fps[i].fns)
	}
	ix.cfg.Metrics.observeIndexed(indexed)
	return nil
}

// IndexStats summarizes the built index.
type IndexStats struct {
	Targets   int `json:"targets"`
	Functions int `json:"functions"`
	Shingles  int `json:"shingles"`
}

// Stats reports index size.
func (ix *Index) Stats() IndexStats {
	st := IndexStats{Targets: len(ix.targets), Shingles: len(ix.df)}
	for _, t := range ix.targets {
		st.Functions += len(t.fp.fns)
	}
	return st
}

// parallel runs fn(0..n-1) on min(Workers, n) goroutines. Results must be
// written to disjoint slots; the call returns after all complete.
func (ix *Index) parallel(n int, fn func(i int)) {
	w := ix.cfg.Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// weight is the inverse document frequency of one shingle: 1 for shingles
// unique to (or absent from) the corpus, 1/df for shared ones.
func (ix *Index) weight(h uint64) float64 {
	if df := ix.df[h]; df > 1 {
		return 1 / float64(df)
	}
	return 1
}

// similarity computes the weighted containment |A∩B|w/|A|w and weighted
// Jaccard |A∩B|w/|A∪B|w of two sorted fingerprints, where A is the source
// side. Containment is the ranking signal (robust to code inserted into the
// clone); Jaccard is reported for diagnostics.
func (ix *Index) similarity(a, b []uint64) (containment, jaccard float64) {
	if len(a) == 0 {
		return 0, 0
	}
	var inter, onlyA, onlyB float64
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			onlyA += ix.weight(a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			onlyB += ix.weight(b[j])
			j++
		default:
			inter += ix.weight(a[i])
			i++
			j++
		}
	}
	if inter == 0 {
		return 0, 0
	}
	return inter / (inter + onlyA), inter / (inter + onlyA + onlyB)
}

// containOrVacuous is similarity restricted to containment, treating an
// empty source side as vacuously satisfied (a leaf function has no callees
// to compare).
func (ix *Index) containOrVacuous(a, b []uint64) float64 {
	if len(a) == 0 {
		return 1
	}
	c, _ := ix.similarity(a, b)
	return c
}

// shapeSim compares two shape signatures with a Canberra-style normalized
// distance over the component counts.
func shapeSim(a, b Shape) float64 {
	num := 0.0
	den := 0.0
	for _, c := range [5][2]int{
		{a.Blocks, b.Blocks}, {a.Branches, b.Branches}, {a.Loops, b.Loops},
		{a.Calls, b.Calls}, {a.Insts, b.Insts},
	} {
		d := c[0] - c[1]
		if d < 0 {
			d = -d
		}
		num += float64(d)
		den += float64(c[0] + c[1])
	}
	if den == 0 {
		return 1
	}
	return 1 - num/den
}
