package symex

// frontier.go implements directed exploration (Executor.Run): a pool of
// Config.Workers explorer goroutines (one by default) sharing one priority
// heap of pending decision alternatives ("nodes").
//
// Protocol. Every state carries a path — the sequence of emission ordinals
// from the root — and emitted children extend their parent's path by one
// element, so a parent's path is a proper prefix of (hence lexicographically
// smaller than) every descendant's. Workers pop the minimal-(distance, path)
// node, check its alternative's feasibility against the shared snapshot
// (read-only), clone, add the constraint, and run the state with a private
// Executor; branches encountered while running emit fresh nodes back into
// the heap. A successful arrival at the objective commits if its path is
// smaller than the best committed so far; nodes and in-flight states whose
// path exceeds the best are pruned and abandoned.
//
// Determinism. The committed success is the minimal-path success of the
// whole decision tree, independent of worker count and scheduling: a node is
// only pruned when its path exceeds the current best, the best only
// decreases, and every descendant of a pruned node has a still-larger path —
// so no potential minimum is ever discarded. When no success exists nothing
// is pruned, every state runs to termination, and the reported death is the
// (deathRank-descending, path-ascending) minimum over all deaths — again
// schedule-independent. The one caveat is MaxBacktracks: the cap is checked
// at pop time but incremented after the feasibility check commits, so a
// run that hits the cap may overshoot it by up to the worker count and its
// result can depend on scheduling. Runs that stay under the cap — all of
// the verification corpus — are exactly reproducible across worker counts.
//
// Concurrency: one mutex guards the heap, the accounting, and the committed
// outcomes; workers hold it only for heap operations and commits, never
// while stepping or solving. Each worker owns a private Executor (its own
// Stats and solver value); they share only the program, the immutable
// snapshots, and the optional solver.Cache, which is safe for concurrent
// use.

import (
	"fmt"
	"sync"

	"octopocs/internal/expr"
	"octopocs/internal/faultinject"
	"octopocs/internal/isa"
	"octopocs/internal/journal"
)

// node is one pending alternative in the shared frontier: a snapshot whose
// program counter is still at the deciding instruction, plus the constraint
// selecting the untried direction. Nodes emitted by one decision share their
// snapshot, which stays immutable while shared.
type node struct {
	snap *State
	// alt is nil only for the root node.
	alt   *expr.Expr
	dist  int64
	path  []uint32
	owner int // emitting worker; -1 for the root
	mem   int64
	// owned marks a snapshot that backs this node alone (the root and every
	// branch decision): only the one worker that pops the node can reach
	// it, so materialize runs it in place instead of cloning it.
	owned bool
}

// frontier is the shared engine state.
type frontier struct {
	prog    *isa.Program
	cfg     Config
	visitor Visitor

	mu   sync.Mutex
	cond *sync.Cond
	heap []*node
	// active counts workers between pop and done.
	active int
	// draining stops pops but lets in-flight states finish (backtrack cap).
	draining bool
	// aborting stops pops and abandons in-flight states (cancel or hard
	// error).
	aborting bool
	err      error

	states, backtracks      int
	loopDeads, programDeads int
	frontierMem, peakMem    int64
	frontierPeak            int
	steals                  uint64

	// best is the minimal-path successful terminal state.
	best *State
	// bestDeath is the maximal-deathRank, then minimal-path dead state.
	bestDeath *State
}

// fWorker is one explorer goroutine's private context.
type fWorker struct {
	id    int
	ex    *Executor
	f     *frontier
	steps int64
}

// pathCmp orders paths lexicographically; a proper prefix sorts before its
// extensions, so a parent always precedes its emitted children.
func pathCmp(a, b []uint32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) == len(b):
		return 0
	case len(a) < len(b):
		return -1
	default:
		return 1
	}
}

func pathLess(a, b []uint32) bool { return pathCmp(a, b) < 0 }

// nodeLess is the heap order: minimal backward-path distance first, then the
// path tie-break that makes the 1-worker pop sequence a total order.
func nodeLess(a, b *node) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return pathLess(a.path, b.path)
}

func heapPush(h *[]*node, nd *node) {
	*h = append(*h, nd)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nodeLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func heapPop(h *[]*node) *node {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && nodeLess(old[l], old[small]) {
			small = l
		}
		if r < n && nodeLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// runFrontier explores prog toward cfg.Target with max(1, cfg.Workers)
// explorer goroutines.
func runFrontier(prog *isa.Program, cfg Config, visitor Visitor) (*Result, error) {
	cfg = normalize(cfg)
	if cfg.Distances == nil {
		return nil, ErrNoDistances
	}
	workers := max(1, cfg.Workers)

	f := &frontier{prog: prog, cfg: cfg, visitor: visitor}
	f.cond = sync.NewCond(&f.mu)

	initial := entryState(prog)
	root := &node{snap: initial, path: []uint32{}, owner: -1, mem: initial.footprint(), owned: true}
	f.heap = []*node{root}
	f.frontierMem = root.mem
	f.peakMem = root.mem
	f.frontierPeak = 1

	ws := make([]*fWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		w := &fWorker{id: i, f: f, ex: New(prog, cfg)}
		w.ex.emit = func(st *State, alts []*expr.Expr, dists []int64) {
			f.emit(w.id, st, alts, dists)
		}
		ws[i] = w
		wg.Add(1)
		go func(w *fWorker) {
			defer wg.Done()
			w.loop()
		}(w)
	}
	wg.Wait()

	return f.finish(ws, workers)
}

// loop is the worker body: pop, materialize, run, repeat.
func (w *fWorker) loop() {
	f := w.f
	for {
		nd := f.pop(w.id)
		if nd == nil {
			return
		}
		w.runNode(nd)
	}
}

// runNode materializes and runs one popped node, always retiring the
// in-flight slot. A panic while materializing or stepping — injected or
// real — must not strand the other workers: pop's termination condition
// waits on active == 0, so the deferred done keeps the accounting
// consistent while the deferred recover converts the panic into the run's
// hard error instead of tearing the process down.
func (w *fWorker) runNode(nd *node) {
	f := w.f
	defer f.done()
	defer func() {
		if r := recover(); r != nil {
			f.fail(faultinject.Recovered("symex.worker", r))
			w.ex.cfg.Faults.CountRecovered()
		}
	}()
	st, ok := w.materialize(nd)
	if !ok {
		return
	}
	f.commitTake(nd)
	w.run(st)
}

// pop blocks until a runnable node is available or the exploration is over,
// returning nil in the latter case. It prunes beaten nodes, enforces the
// backtrack cap, and counts steals.
func (f *frontier) pop(wid int) *node {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.aborting {
			f.cond.Broadcast()
			return nil
		}
		for len(f.heap) > 0 && f.best != nil && !pathLess(f.heap[0].path, f.best.path) {
			nd := heapPop(&f.heap)
			f.frontierMem -= nd.mem
			if f.cfg.Journal.Verbose() {
				f.cfg.Journal.Emit(journal.EvSymexPrune, journal.Attrs{"why": "beaten", "path": PathString(nd.path)})
			}
		}
		if !f.draining && len(f.heap) > 0 {
			if f.backtracks >= f.cfg.MaxBacktracks {
				f.draining = true
				continue
			}
			nd := heapPop(&f.heap)
			f.frontierMem -= nd.mem
			if nd.owner >= 0 && nd.owner != wid {
				f.steals++
			}
			f.active++
			return nd
		}
		if f.active == 0 {
			f.cond.Broadcast()
			return nil
		}
		f.cond.Wait()
	}
}

// materialize turns a popped node into a runnable state: feasibility check
// against the snapshot (read-only), then clone — unless the node owns its
// snapshot — and constrain. An infeasible alternative is dropped without
// counting a state.
func (w *fWorker) materialize(nd *node) (*State, bool) {
	if nd.alt != nil {
		ok, err := w.ex.feasible(nd.snap, nd.alt)
		if err != nil {
			w.f.fail(err)
			return nil, false
		}
		if !ok {
			if w.f.cfg.Journal.Verbose() {
				w.f.cfg.Journal.Emit(journal.EvSymexPrune, journal.Attrs{"why": "infeasible", "worker": w.id, "path": PathString(nd.path)})
			}
			return nil, false
		}
	}
	st := nd.snap
	if !nd.owned {
		st = st.clone()
	}
	st.path = nd.path
	st.emitSeq = 0
	if nd.alt != nil {
		st.AddConstraint(nd.alt)
	}
	return st, true
}

// commitTake accounts a node that passed feasibility and is about to run.
// The backtrack cap may overshoot by up to the worker count because the gate
// is at pop and the increment is here, after the solver call.
func (f *frontier) commitTake(nd *node) {
	f.mu.Lock()
	f.states++
	if nd.alt != nil {
		f.backtracks++
	}
	f.mu.Unlock()
}

// run executes one state to success, death, or abandonment.
func (w *fWorker) run(st *State) {
	f, e := w.f, w.ex
	start := st.steps
	defer func() { w.steps += st.steps - start }()
	for st.kind == KindActive {
		if st.steps&stopCheckMask == 0 {
			if e.stopHit() {
				f.fail(ErrStopped)
				return
			}
			if f.abandoned(st.path) {
				return
			}
			// Scheduled chaos, in escalating order: a worker panic
			// (recovered by runNode), a stall, a forced cancellation.
			e.cfg.Faults.Panic(faultinject.SymexWorkerPanic)
			e.cfg.Faults.Sleep(faultinject.SymexFrontierStall)
			if e.cfg.Faults.Fire(faultinject.SymexCancel) {
				f.fail(ErrStopped)
				return
			}
		}
		if st.steps >= e.cfg.MaxSteps {
			st.die(KindHung, fmt.Sprintf("step budget exhausted at %s", st.loc()))
			break
		}
		stop, err := e.step(st, f.visitor, true)
		if err != nil {
			f.fail(err)
			return
		}
		if stop {
			f.commitSuccess(st)
			return
		}
	}
	f.commitDeath(st)
}

// emit pushes one decision's untried alternatives into the shared heap. The
// running state's emitSeq assigns each child its path ordinal; the snapshot
// is cloned once and shared (immutably) by all alternatives, or owned
// outright when there is only one.
func (f *frontier) emit(owner int, st *State, alts []*expr.Expr, dists []int64) {
	snap := st.clone()
	snap.emitSeq = 0
	nodes := make([]*node, len(alts))
	mem := snap.footprint()
	for i, alt := range alts {
		path := make([]uint32, len(st.path)+1)
		copy(path, st.path)
		path[len(st.path)] = st.emitSeq
		st.emitSeq++
		nodes[i] = &node{snap: snap, alt: alt, dist: dists[i], path: path, owner: owner, mem: mem, owned: len(alts) == 1}
	}
	if f.cfg.Journal.Verbose() {
		f.cfg.Journal.Emit(journal.EvSymexFork, journal.Attrs{"worker": owner, "children": len(alts), "path": PathString(st.path)})
	}
	f.mu.Lock()
	for _, nd := range nodes {
		if f.best != nil && !pathLess(nd.path, f.best.path) {
			continue // already beaten
		}
		heapPush(&f.heap, nd)
		f.frontierMem += nd.mem
	}
	if len(f.heap) > f.frontierPeak {
		f.frontierPeak = len(f.heap)
	}
	if f.frontierMem > f.peakMem {
		f.peakMem = f.frontierMem
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// abandoned reports whether an in-flight state should stop: the exploration
// is aborting, or a strictly better success has already committed.
func (f *frontier) abandoned(path []uint32) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.aborting || (f.best != nil && !pathLess(path, f.best.path))
}

// commitSuccess installs a successful terminal state if its path beats the
// best so far.
func (f *frontier) commitSuccess(st *State) {
	f.mu.Lock()
	if f.best == nil || pathLess(st.path, f.best.path) {
		f.best = st
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	if f.cfg.Journal.Verbose() {
		f.cfg.Journal.Emit(journal.EvSymexCommit, journal.Attrs{"kind": "success", "path": PathString(st.path)})
	}
}

// commitDeath records a dead terminal state, keeping the most diagnostic
// (deathRank-descending, path-ascending) one.
func (f *frontier) commitDeath(st *State) {
	f.mu.Lock()
	switch st.kind {
	case KindLoopDead:
		f.loopDeads++
	case KindProgramDead:
		f.programDeads++
	}
	if f.bestDeath == nil ||
		deathRank(st.kind) > deathRank(f.bestDeath.kind) ||
		(deathRank(st.kind) == deathRank(f.bestDeath.kind) && pathLess(st.path, f.bestDeath.path)) {
		f.bestDeath = st
	}
	if fp := st.footprint(); fp > f.peakMem {
		f.peakMem = fp
	}
	f.mu.Unlock()
	if f.cfg.Journal.Verbose() {
		f.cfg.Journal.Emit(journal.EvSymexCommit, journal.Attrs{"kind": st.kind.String(), "path": PathString(st.path)})
	}
}

// done retires a worker's in-flight slot and wakes poppers that may now
// observe termination.
func (f *frontier) done() {
	f.mu.Lock()
	f.active--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// fail records the first hard error and aborts the exploration.
func (f *frontier) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.aborting = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// finish merges worker statistics and assembles the Result, flushing
// metrics exactly once.
func (f *frontier) finish(ws []*fWorker, workers int) (*Result, error) {
	stat := Stats{
		States:       f.states,
		Backtracks:   f.backtracks,
		LoopDeads:    f.loopDeads,
		ProgramDeads: f.programDeads,
		PeakMemBytes: f.peakMem,
		Workers:      workers,
		Steals:       f.steals,
		FrontierPeak: f.frontierPeak,
	}
	workerSteps := make([]int64, len(ws))
	for i, w := range ws {
		stat.Steps += w.steps
		stat.SatChecks += w.ex.stat.SatChecks
		stat.LoopStates += w.ex.stat.LoopStates
		stat.PrunedBranches += w.ex.stat.PrunedBranches
		stat.SatDischargedStatic += w.ex.stat.SatDischargedStatic
		workerSteps[i] = w.steps
	}

	res, err := f.assemble(stat)
	kind := KindActive
	if res != nil {
		kind = res.Kind
	}
	f.cfg.Metrics.observe(&stat, kind)
	f.cfg.Metrics.observeWorkers(workerSteps)
	if res != nil && res.Kind != KindActive {
		f.cfg.Logger.Debug("frontier run ended dead",
			"kind", res.Kind.String(), "why", res.Why,
			"states", stat.States, "backtracks", stat.Backtracks,
			"workers", workers, "steals", stat.Steals)
	}
	return res, err
}

// assemble picks the run outcome per the commit protocol.
func (f *frontier) assemble(stat Stats) (*Result, error) {
	fromState := func(st *State, kind StateKind) *Result {
		entries := make([]EpEntry, len(st.entries))
		copy(entries, st.entries)
		return &Result{
			Kind:        kind,
			Why:         st.why,
			Constraints: st.constraints,
			Entries:     entries,
			Path:        st.path,
			Stats:       stat,
		}
	}
	switch {
	case f.err != nil:
		return nil, f.err
	case f.best != nil:
		return fromState(f.best, KindActive), nil
	case f.bestDeath != nil:
		return fromState(f.bestDeath, f.bestDeath.kind), nil
	default:
		// Unreachable in practice: the root state always terminates.
		return &Result{Kind: KindProgramDead, Why: "no state terminated", Stats: stat}, nil
	}
}
