package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"octopocs/internal/asm"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/faultinject"
	"octopocs/internal/journal"
)

// maxSubmitBytes bounds a submission body: two assembled MIR programs plus
// a poc comfortably fit in single-digit megabytes.
const maxSubmitBytes = 16 << 20

// SubmitRequest is the POST /v1/jobs body. A pair is given either inline —
// assembled MIR text for S and T, poc bytes, and the shared function set ℓ —
// or as a built-in Table II corpus row via corpus_idx.
type SubmitRequest struct {
	// Name labels the pair in reports; defaults to "s->t".
	Name string `json:"name,omitempty"`
	// S and T are assembled MIR program texts (see internal/asm).
	S string `json:"s,omitempty"`
	T string `json:"t,omitempty"`
	// PoC is the crashing input for S (JSON base64).
	PoC []byte `json:"poc,omitempty"`
	// Lib is ℓ, the shared function set.
	Lib []string `json:"lib,omitempty"`
	// CtxArgs lists ep parameter indices carrying semantic context.
	CtxArgs []int `json:"ctx_args,omitempty"`
	// InputSize overrides the symbolic poc' size (0 = default).
	InputSize int `json:"input_size,omitempty"`
	// MaxSteps overrides the per-run instruction budget (0 = default).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// CorpusIdx submits a built-in corpus row instead: the Table II pairs
	// (1-15), the static-prune pairs (16-17) or the hybrid-fallback pairs
	// (18-21).
	CorpusIdx int `json:"corpus_idx,omitempty"`
	// Static overrides the service-wide static-prune setting for this job:
	// true forces the pre-P2 static analysis (isa's Check with
	// read-before-write warnings, value-range branch folding, dead-block
	// pruning, statically-unreachable short-circuit), false forces it off,
	// absent inherits the pipeline configuration.
	Static *bool `json:"static,omitempty"`
}

// BuildPair converts the request into a verification task.
func (r *SubmitRequest) BuildPair() (*core.Pair, error) {
	if r.CorpusIdx != 0 {
		spec := corpus.ByIdx(r.CorpusIdx)
		if spec == nil {
			return nil, fmt.Errorf("no corpus pair with index %d (valid: 1-21)", r.CorpusIdx)
		}
		pair := spec.Pair
		if r.Static != nil {
			// Corpus specs are shared; copy before attaching the per-job
			// override.
			cp := *pair
			cp.StaticPrune = r.Static
			pair = &cp
		}
		return pair, nil
	}
	if r.S == "" || r.T == "" {
		return nil, errors.New("s and t program texts are required (or corpus_idx)")
	}
	if len(r.PoC) == 0 {
		return nil, errors.New("poc is required")
	}
	if len(r.Lib) == 0 {
		return nil, errors.New("lib (the shared function set) is required")
	}
	sProg, err := asm.Parse(r.S)
	if err != nil {
		return nil, fmt.Errorf("parse s: %w", err)
	}
	tProg, err := asm.Parse(r.T)
	if err != nil {
		return nil, fmt.Errorf("parse t: %w", err)
	}
	lib := make(map[string]bool, len(r.Lib))
	for _, fn := range r.Lib {
		lib[fn] = true
	}
	name := r.Name
	if name == "" {
		name = fmt.Sprintf("%s->%s", sProg.Name, tProg.Name)
	}
	return &core.Pair{
		Name:        name,
		S:           sProg,
		T:           tProg,
		PoC:         r.PoC,
		Lib:         lib,
		CtxArgs:     r.CtxArgs,
		InputSize:   r.InputSize,
		MaxSteps:    r.MaxSteps,
		StaticPrune: r.Static,
	}, nil
}

// ReportResponse is the GET /v1/jobs/{id}/report body.
type ReportResponse struct {
	JobStatus
	Report *core.Report `json:"report,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs              submit a pair (?wait=1 blocks until done)
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/report  full verification report
//	GET  /v1/jobs/{id}/poc     reformed PoC bytes
//	GET  /v1/jobs/{id}/trace   phase/sub-step span tree (JSON)
//	GET  /v1/jobs/{id}/events  provenance journal (?after=N pages; ?stream=1
//	                           or Accept: text/event-stream follows live)
//	POST /v1/jobs/{id}/cancel  cooperative cancellation
//	POST /v1/batches           submit many jobs atomically, deduplicated
//	GET  /v1/batches           list all batches
//	GET  /v1/batches/{id}      batch status with per-item job mapping
//	POST /v1/scan              batch clone scan (?wait=1 blocks until done)
//	GET  /v1/scans             list all scans
//	GET  /v1/scans/{id}        scan status with per-candidate verdicts
//	GET  /v1/stats             queue/worker/latency/cache/store counters
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness (503 while draining)
//
// Backpressure contract: a full queue or a saturated artifact store answers
// submissions (jobs and batches alike) with 429 and a Retry-After header
// carrying the advised backoff in seconds; clients should wait at least
// that long before resubmitting.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *Job) {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.withJob(s.handleReport))
	mux.HandleFunc("GET /v1/jobs/{id}/poc", s.withJob(handlePoC))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.withJob(s.handleTrace))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.withJob(s.handleEvents))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.withJob(func(w http.ResponseWriter, r *http.Request, j *Job) {
		j.Cancel()
		writeJSON(w, http.StatusOK, j.Snapshot())
	}))
	mux.HandleFunc("POST /v1/batches", s.handleBatch)
	mux.HandleFunc("GET /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Batches())
	})
	mux.HandleFunc("GET /v1/batches/{id}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := s.BatchByID(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown batch %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, b.Snapshot())
	})
	mux.HandleFunc("POST /v1/scan", s.handleScan)
	mux.HandleFunc("GET /v1/scans", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Scans())
	})
	mux.HandleFunc("GET /v1/scans/{id}", func(w http.ResponseWriter, r *http.Request) {
		sc, ok := s.ScanByID(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown scan %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, sc.Snapshot())
	})
	return s.recoverMiddleware(mux)
}

// recoverMiddleware is the HTTP-layer panic containment boundary: a panic
// in any handler (or an injected one) answers 500 and keeps the server
// alive instead of killing the connection's serve goroutine with a stack
// dump. Panics after the handler started writing cannot be converted to a
// clean 500 — the reply is already on the wire — but they are still
// contained and counted.
func (s *Service) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.faults().CountRecovered()
				s.log.Error("panic recovered in HTTP handler",
					"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(rec))
				writeErr(w, http.StatusInternalServerError,
					errors.New("internal error: handler panicked"))
			}
		}()
		s.faults().Panic(faultinject.ServiceHandlerPanic)
		next.ServeHTTP(w, r)
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	pair, err := req.BuildPair()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.Submit(pair)
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		// Block until the job finishes (or the client goes away; the job
		// itself keeps running — cancellation is explicit).
		if _, err := job.Wait(r.Context()); err != nil {
			writeErr(w, http.StatusRequestTimeout, err)
			return
		}
		writeJSON(w, http.StatusOK, job.Snapshot())
		return
	}
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

// writeSubmitErr maps a submission error onto the backpressure contract:
// queue-full and store-saturation reject with 429 plus a Retry-After header
// (whole seconds, rounded up) telling the client how long to back off;
// shutdown answers 503.
func (s *Service) writeSubmitErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrSaturated):
		secs := int64(s.RetryAfter().Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShutdown):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

// handleBatch answers POST /v1/batches: every item is validated first (any
// bad item fails the whole request with 400 before admission), then the
// batch is admitted atomically — all unique jobs enqueued, or a single 429
// with Retry-After.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("jobs must not be empty"))
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d jobs exceeds the %d-job limit", len(req.Jobs), maxBatchJobs))
		return
	}
	pairs := make([]*core.Pair, len(req.Jobs))
	for i := range req.Jobs {
		pair, err := req.Jobs[i].BuildPair()
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return
		}
		pairs[i] = pair
	}
	b, err := s.SubmitBatch(req.Name, pairs)
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, b.Snapshot())
}

// handleScan answers POST /v1/scan: retrieval runs synchronously (bad
// requests fail with 400 before anything is enqueued), candidate
// verifications fan out on the job queue. With ?wait=1 the reply blocks
// until every candidate is resolved.
func (s *Service) handleScan(w http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	sc, err := s.StartScan(&req)
	switch {
	case errors.Is(err, ErrShutdown):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		if err := sc.Wait(r.Context()); err != nil {
			writeErr(w, http.StatusRequestTimeout, err)
			return
		}
		writeJSON(w, http.StatusOK, sc.Snapshot())
		return
	}
	writeJSON(w, http.StatusAccepted, sc.Snapshot())
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request, j *Job) {
	resp := ReportResponse{JobStatus: j.Snapshot(), Report: j.Report()}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request, j *Job) {
	tr, ok := s.Trace(j.ID())
	if !ok {
		writeErr(w, http.StatusNotFound,
			errors.New("no trace retained for this job (tracing disabled, job still queued, or trace evicted)"))
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// EventsResponse is the GET /v1/jobs/{id}/events body (JSON mode). Next is
// the cursor for the follow-up ?after= request: the Seq of the last event
// returned, or the request's own cursor when nothing new arrived.
type EventsResponse struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Next    uint64          `json:"next"`
	Dropped uint64          `json:"dropped"`
	Events  []journal.Event `json:"events"`
}

var errNoJournal = errors.New(
	"no journal for this job (journaling disabled or artifact evicted)")

// handleEvents answers GET /v1/jobs/{id}/events: one JSON page of journal
// events after the ?after= cursor, or — with ?stream=1 or an SSE Accept
// header — a live text/event-stream that follows the job to completion.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad after cursor %q: %w", v, err))
			return
		}
		after = n
	}
	if q := r.URL.Query().Get("stream"); q == "1" || q == "true" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamEvents(w, r, j, after)
		return
	}
	rec, events, ok := s.jobJournal(j)
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJournal)
		return
	}
	if rec != nil {
		events = rec.EventsAfter(after)
	} else {
		events = eventsAfter(events, after)
	}
	next := after
	if n := len(events); n > 0 {
		next = events[n-1].Seq
	}
	writeJSON(w, http.StatusOK, EventsResponse{
		ID:      j.ID(),
		State:   j.State().String(),
		Next:    next,
		Dropped: j.Snapshot().JournalDropped,
		Events:  events,
	})
}

// streamEvents serves the journal as server-sent events: every event is one
// `data:` frame of its JSON encoding, and a final `event: done` frame
// carries the job's terminal state. The Updated channel is taken before
// each drain so no append between reads is missed.
func (s *Service) streamEvents(w http.ResponseWriter, r *http.Request, j *Job, after uint64) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusNotImplemented, errors.New("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	emit := func(events []journal.Event) {
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
			after = ev.Seq
		}
		if len(events) > 0 {
			fl.Flush()
		}
	}
	done := func() {
		fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", j.State().String())
		fl.Flush()
	}
	for {
		rec, events, ok := s.jobJournal(j)
		if !ok {
			// Disabled or evicted: nothing will ever arrive on this job.
			done()
			return
		}
		if rec == nil {
			// Finished and persisted: replay the artifact and end.
			emit(eventsAfter(events, after))
			done()
			return
		}
		// Order matters: closed-check, then channel, then drain — a Close
		// racing this sequence still fires the (already-closed) channel, so
		// the next iteration observes it.
		closed := rec.Closed()
		ch := rec.Updated()
		emit(rec.EventsAfter(after))
		if closed {
			done()
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// eventsAfter pages a decoded event slice by Seq cursor.
func eventsAfter(events []journal.Event, after uint64) []journal.Event {
	if after == 0 {
		return events
	}
	i := 0
	for i < len(events) && events[i].Seq <= after {
		i++
	}
	return events[i:]
}

func handlePoC(w http.ResponseWriter, r *http.Request, j *Job) {
	if !j.State().Terminal() {
		writeErr(w, http.StatusConflict, errors.New("job has not finished"))
		return
	}
	rep := j.Report()
	if rep == nil || len(rep.PoCPrime) == 0 {
		writeErr(w, http.StatusNotFound, errors.New("no reformed PoC was generated"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(rep.PoCPrime)
}

// withJob resolves the {id} path segment, answering 404 for unknown jobs.
func (s *Service) withJob(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		h(w, r, j)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
