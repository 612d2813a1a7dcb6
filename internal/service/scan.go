package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"octopocs/internal/asm"
	"octopocs/internal/clonedet"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/isa"
)

// ScanState is the lifecycle position of a batch scan.
type ScanState int

// Scan states.
const (
	// ScanRunning: retrieval is done and candidate verifications are in
	// flight (or being enqueued).
	ScanRunning ScanState = iota + 1
	// ScanDone: every candidate reached a terminal verdict (or failed to
	// enqueue).
	ScanDone
)

// String renders the state.
func (s ScanState) String() string {
	switch s {
	case ScanRunning:
		return "running"
	case ScanDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ScanTargetSpec is one inline target program of a scan request.
type ScanTargetSpec struct {
	// Key identifies the target in candidates; defaults to the program name.
	Key string `json:"key,omitempty"`
	// T is the assembled MIR program text (see internal/asm).
	T string `json:"t"`
}

// ScanRequest is the POST /v1/scan body: one source CVE fanned across a
// target corpus. The source is given inline (assembled MIR text, poc bytes,
// vulnerable function names) or as a built-in corpus row via corpus_idx; the
// target side is inline programs, the built-in 21-row corpus, or both.
type ScanRequest struct {
	// Name labels the scan; defaults to the source program name.
	Name string `json:"name,omitempty"`
	// S is the assembled MIR source program text.
	S string `json:"s,omitempty"`
	// PoC is the crashing input for S (JSON base64).
	PoC []byte `json:"poc,omitempty"`
	// Vuln lists the vulnerable (ℓ-side) function names of S.
	Vuln []string `json:"vuln,omitempty"`
	// Ep optionally fixes the entry-point function for candidate anchoring.
	Ep string `json:"ep,omitempty"`
	// FindEp derives Ep by crashing S with the PoC and taking the
	// bottom-most ℓ frame of the backtrace (overrides Ep on success).
	FindEp bool `json:"find_ep,omitempty"`
	// CorpusIdx sources the scan from a built-in corpus row (1-21): its S
	// program, PoC, and ℓ function set.
	CorpusIdx int `json:"corpus_idx,omitempty"`
	// Targets are inline target programs to index.
	Targets []ScanTargetSpec `json:"targets,omitempty"`
	// CorpusTargets additionally indexes all 21 built-in corpus targets
	// (keyed corpus/NN).
	CorpusTargets bool `json:"corpus_targets,omitempty"`
	// MinScore and TopK tune retrieval (see clonedet.Config).
	MinScore float64 `json:"min_score,omitempty"`
	TopK     int     `json:"top_k,omitempty"`
	// RetrieveOnly skips verification: the scan completes with ranked
	// candidates only.
	RetrieveOnly bool `json:"retrieve_only,omitempty"`
	// CtxArgs, InputSize and MaxSteps configure the candidate verifications
	// exactly as in SubmitRequest; corpus-sourced scans inherit the row's
	// values when these are unset.
	CtxArgs   []int `json:"ctx_args,omitempty"`
	InputSize int   `json:"input_size,omitempty"`
	MaxSteps  int64 `json:"max_steps,omitempty"`
}

// scanSource is the resolved source side of a scan.
type scanSource struct {
	name      string
	prog      *isa.Program
	poc       []byte
	vuln      []string
	ep        string
	findEp    bool
	ctxArgs   []int
	inputSize int
	maxSteps  int64
}

// buildSource resolves the request's source side.
func (r *ScanRequest) buildSource() (*scanSource, error) {
	src := &scanSource{
		name:      r.Name,
		poc:       r.PoC,
		vuln:      append([]string(nil), r.Vuln...),
		ep:        r.Ep,
		findEp:    r.FindEp,
		ctxArgs:   r.CtxArgs,
		inputSize: r.InputSize,
		maxSteps:  r.MaxSteps,
	}
	if r.CorpusIdx != 0 {
		spec := corpus.ByIdx(r.CorpusIdx)
		if spec == nil {
			return nil, fmt.Errorf("no corpus pair with index %d (valid: 1-21)", r.CorpusIdx)
		}
		src.prog = spec.Pair.S
		if len(src.poc) == 0 {
			src.poc = spec.Pair.PoC
		}
		if len(src.vuln) == 0 {
			for fn := range spec.Pair.Lib {
				src.vuln = append(src.vuln, fn)
			}
			sort.Strings(src.vuln)
		}
		if src.ctxArgs == nil {
			src.ctxArgs = spec.Pair.CtxArgs
		}
		if src.inputSize == 0 {
			src.inputSize = spec.Pair.InputSize
		}
		if src.maxSteps == 0 {
			src.maxSteps = spec.Pair.MaxSteps
		}
		if src.name == "" {
			src.name = spec.SName
		}
		return src, nil
	}
	if r.S == "" {
		return nil, errors.New("s program text is required (or corpus_idx)")
	}
	prog, err := asm.Parse(r.S)
	if err != nil {
		return nil, fmt.Errorf("parse s: %w", err)
	}
	src.prog = prog
	if len(src.vuln) == 0 {
		return nil, errors.New("vuln (the vulnerable function names) is required")
	}
	if src.name == "" {
		src.name = prog.Name
	}
	return src, nil
}

// buildTargets resolves the request's target corpus: inline programs plus,
// when requested, the built-in corpus rows.
func (r *ScanRequest) buildTargets() ([]clonedet.Target, map[string]*isa.Program, error) {
	var ts []clonedet.Target
	progs := make(map[string]*isa.Program)
	add := func(key string, prog *isa.Program) {
		ts = append(ts, clonedet.Target{Key: key, Prog: prog})
		progs[key] = prog
	}
	for i, t := range r.Targets {
		prog, err := asm.Parse(t.T)
		if err != nil {
			return nil, nil, fmt.Errorf("parse target %d: %w", i, err)
		}
		key := t.Key
		if key == "" {
			key = prog.Name
		}
		add(key, prog)
	}
	if r.CorpusTargets {
		for _, spec := range corpus.Rows() {
			add(fmt.Sprintf("corpus/%02d", spec.Idx), spec.Pair.T)
		}
	}
	if len(ts) == 0 {
		return nil, nil, errors.New("no targets: give targets and/or corpus_targets")
	}
	return ts, progs, nil
}

// ScanCandidate is one ranked candidate with its verification outcome.
type ScanCandidate struct {
	clonedet.Candidate
	// JobID is the verification job driving this candidate ("" when
	// retrieval-only or when enqueueing failed).
	JobID string `json:"job_id,omitempty"`
	// Verdict/Type mirror the finished job's report.
	Verdict string `json:"verdict,omitempty"`
	Type    string `json:"type,omitempty"`
	// Confirmed is set when verification produced a replay-confirmed poc',
	// reformed or fuzzed, that triggers the vulnerability in this target.
	Confirmed bool `json:"confirmed,omitempty"`
	// Error carries the enqueue or verification error, if any.
	Error string `json:"error,omitempty"`
	// JournalEvents/JournalDropped summarize the candidate job's provenance
	// journal (see GET /v1/jobs/{id}/events for the events themselves).
	JournalEvents  int    `json:"journal_events,omitempty"`
	JournalDropped uint64 `json:"journal_dropped,omitempty"`
}

// Scan is one batch clone-scan: a retrieval pass plus the verification jobs
// it fanned out. All methods are safe for concurrent use.
type Scan struct {
	id        string
	name      string
	submitted time.Time
	stats     clonedet.IndexStats
	done      chan struct{}

	mu    sync.Mutex
	state ScanState
	ep    string
	cands []ScanCandidate
}

// ID returns the scan identifier assigned at submission.
func (sc *Scan) ID() string { return sc.id }

// Done returns a channel closed when every candidate is resolved.
func (sc *Scan) Done() <-chan struct{} { return sc.done }

// Wait blocks until the scan finishes or ctx expires.
func (sc *Scan) Wait(ctx context.Context) error {
	select {
	case <-sc.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ScanStatus is the JSON-facing snapshot of a scan.
type ScanStatus struct {
	ID        string              `json:"id"`
	Name      string              `json:"name"`
	State     string              `json:"state"`
	Submitted time.Time           `json:"submitted"`
	Ep        string              `json:"ep,omitempty"`
	Index     clonedet.IndexStats `json:"index"`
	// Confirmed counts candidates verified triggered so far.
	Confirmed int `json:"confirmed"`
	// JournalEvents/JournalDropped aggregate the per-candidate journal
	// accounting across the scan.
	JournalEvents  int             `json:"journal_events,omitempty"`
	JournalDropped uint64          `json:"journal_dropped,omitempty"`
	Candidates     []ScanCandidate `json:"candidates"`
}

// Snapshot renders the scan for status endpoints.
func (sc *Scan) Snapshot() ScanStatus {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := ScanStatus{
		ID:         sc.id,
		Name:       sc.name,
		State:      sc.state.String(),
		Submitted:  sc.submitted,
		Ep:         sc.ep,
		Index:      sc.stats,
		Candidates: append([]ScanCandidate(nil), sc.cands...),
	}
	for _, c := range sc.cands {
		if c.Confirmed {
			st.Confirmed++
		}
		st.JournalEvents += c.JournalEvents
		st.JournalDropped += c.JournalDropped
	}
	return st
}

// StartScan runs retrieval synchronously — indexing the request's targets
// and ranking candidates — then fans each candidate out as a verification
// job on the shared queue and returns the running scan. Retrieval errors
// (bad programs, unknown functions) surface here; per-candidate verification
// outcomes land on the scan as jobs finish. Candidates whose submission is
// rejected (queue full, shutdown) record the error instead of a verdict —
// the backpressure contract is per candidate, not per scan.
func (s *Service) StartScan(req *ScanRequest) (*Scan, error) {
	src, err := req.buildSource()
	if err != nil {
		return nil, err
	}
	targets, progs, err := req.buildTargets()
	if err != nil {
		return nil, err
	}
	if src.findEp {
		pair, perr := src.pair("", src.prog) // S-side only: crash S, read the backtrace
		if perr != nil {
			return nil, perr
		}
		ep, perr := s.pl.FindEp(pair)
		if perr != nil {
			return nil, fmt.Errorf("find ep: %w", perr)
		}
		src.ep = ep
	}
	ix := clonedet.NewIndex(clonedet.Config{
		MinScore: req.MinScore,
		TopK:     req.TopK,
		Workers:  s.cfg.Workers,
		Metrics:  s.met.clonedet,
		Cache:    s.stores.cache(clonedet.KeyClass),
	})
	if err := ix.AddAll(targets); err != nil {
		return nil, err
	}
	cands, err := ix.Scan(clonedet.Source{
		Name: src.name,
		Prog: src.prog,
		Vuln: src.vuln,
		Ep:   src.ep,
	})
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	s.nextScanID++
	sc := &Scan{
		id:        fmt.Sprintf("scan-%d", s.nextScanID),
		name:      src.name,
		submitted: time.Now(),
		stats:     ix.Stats(),
		done:      make(chan struct{}),
		state:     ScanRunning,
		ep:        src.ep,
	}
	for _, c := range cands {
		sc.cands = append(sc.cands, ScanCandidate{Candidate: c})
	}
	s.scans[sc.id] = sc
	s.scanOrder = append(s.scanOrder, sc.id)
	s.mu.Unlock()
	s.log.Info("scan started", "scan", sc.id, "source", src.name,
		"targets", sc.stats.Targets, "candidates", len(cands), "ep", src.ep)

	if req.RetrieveOnly || len(sc.cands) == 0 {
		sc.finish()
		return sc, nil
	}

	jobs := make([]*Job, len(sc.cands))
	for i := range sc.cands {
		c := &sc.cands[i]
		pair, perr := src.pair(c.Target, progs[c.Target])
		if perr != nil {
			c.Error = perr.Error()
			continue
		}
		pair.Lib = make(map[string]bool, len(c.Lib))
		for _, fn := range c.Lib {
			pair.Lib[fn] = true
		}
		job, jerr := s.Submit(pair)
		if jerr != nil {
			c.Error = jerr.Error()
			continue
		}
		c.JobID = job.ID()
		jobs[i] = job
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.recoverToLog("scan.watcher")
		s.watchScan(sc, jobs)
	}()
	return sc, nil
}

// pair assembles the verification task for one candidate target. With an
// empty target it builds the S-side-only pair FindEp needs.
func (ss *scanSource) pair(targetKey string, tProg *isa.Program) (*core.Pair, error) {
	if targetKey != "" && tProg == nil {
		return nil, fmt.Errorf("no program for target %q", targetKey)
	}
	if len(ss.poc) == 0 {
		return nil, errors.New("poc is required to verify candidates")
	}
	lib := make(map[string]bool, len(ss.vuln))
	for _, fn := range ss.vuln {
		lib[fn] = true
	}
	name := ss.name
	if targetKey != "" {
		name = fmt.Sprintf("%s=>%s", ss.name, targetKey)
	}
	if tProg == nil {
		tProg = ss.prog
	}
	return &core.Pair{
		Name:      name,
		S:         ss.prog,
		T:         tProg,
		PoC:       ss.poc,
		Lib:       lib,
		CtxArgs:   ss.ctxArgs,
		InputSize: ss.inputSize,
		MaxSteps:  ss.maxSteps,
	}, nil
}

// watchScan waits for every candidate job and folds its terminal state back
// into the scan, reporting each verdict to the clonedet counters.
func (s *Service) watchScan(sc *Scan, jobs []*Job) {
	for i, job := range jobs {
		if job == nil {
			continue
		}
		rep, err := job.Wait(context.Background())
		snap := job.Snapshot()
		sc.mu.Lock()
		c := &sc.cands[i]
		switch {
		case err != nil:
			c.Error = err.Error()
		case rep != nil:
			c.Verdict = rep.Verdict.String()
			c.Type = rep.Type.String()
			c.Confirmed = rep.Verdict.Triggered()
		}
		c.JournalEvents = snap.JournalEvents
		c.JournalDropped = snap.JournalDropped
		sc.mu.Unlock()
		if err == nil && rep != nil && rep.Verdict != core.VerdictFailure {
			s.met.clonedet.ObserveVerdict(rep.Verdict.Triggered())
		}
	}
	sc.finish()
	snap := sc.Snapshot()
	s.log.Info("scan done", "scan", sc.id, "source", sc.name,
		"candidates", len(snap.Candidates), "confirmed", snap.Confirmed)
}

// finish moves the scan to its terminal state and releases waiters.
func (sc *Scan) finish() {
	sc.mu.Lock()
	if sc.state == ScanDone {
		sc.mu.Unlock()
		return
	}
	sc.state = ScanDone
	sc.mu.Unlock()
	close(sc.done)
}

// ScanByID returns a scan by ID.
func (s *Service) ScanByID(id string) (*Scan, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := s.scans[id]
	return sc, ok
}

// Scans snapshots every known scan in submission order.
func (s *Service) Scans() []ScanStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.scanOrder...)
	scans := make([]*Scan, 0, len(ids))
	for _, id := range ids {
		scans = append(scans, s.scans[id])
	}
	s.mu.Unlock()
	out := make([]ScanStatus, len(scans))
	for i, sc := range scans {
		out[i] = sc.Snapshot()
	}
	return out
}
