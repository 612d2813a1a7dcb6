// Package service runs the OCTOPOCS pipeline as a long-lived verification
// service: a bounded job queue drained by a worker pool, a content-addressed
// phase-artifact cache shared by all workers, cooperative cancellation and
// per-job deadlines, and an HTTP API (see http.go) served by the octoserved
// command.
//
// The cache is what makes the service more than a thread pool: clone
// detectors emit many candidate (S, T) pairs sharing one original package or
// one propagation target, so the S-side taint artifacts (P1) and the T-side
// CFG/distance artifacts (P2 prep) are keyed by content hashes of exactly
// the inputs that determine them and reused across jobs.
//
// Concurrency: a Service is safe for concurrent Submit/Wait/Stats calls.
// All pool workers share one core.Pipeline (safe by that package's
// contract) and one artifact cache (internally locked). Two parallelism
// levels compose: Workers jobs run at once, and Pipeline.SymexWorkers
// explorer goroutines run inside each job's P2/P3 symbolic execution; the
// default auto-budget divides GOMAXPROCS between them.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"octopocs/internal/artifact"
	"octopocs/internal/core"
	"octopocs/internal/faultinject"
	"octopocs/internal/journal"
	"octopocs/internal/telemetry"
)

// Service errors.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity; callers are expected to back off and retry.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrSaturated rejects a submission while the persistent artifact
	// store's disk tier is refusing writes (disk full or failing); the HTTP
	// layer maps it to 429 with Retry-After so clients shed load until the
	// volume recovers.
	ErrSaturated = errors.New("service: artifact store saturated")
	// ErrShutdown rejects submissions after Shutdown has begun.
	ErrShutdown = errors.New("service: shutting down")
)

// Defaults.
const (
	// DefaultQueueDepth bounds the number of accepted-but-unstarted jobs.
	DefaultQueueDepth = 64
	// DefaultCacheEntries is the per-class capacity of the memory-only
	// store bundle: the memory-only store's default hot-tier size.
	DefaultCacheEntries = artifact.DefaultHotEntries
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the worker-pool size; GOMAXPROCS when <= 0.
	Workers int
	// QueueDepth bounds queued jobs; DefaultQueueDepth when 0.
	QueueDepth int
	// JobTimeout is the per-job deadline; 0 means none.
	JobTimeout time.Duration
	// CacheEntries sizes each class's store in the memory-only bundle the
	// service builds when Stores is nil: DefaultCacheEntries when 0, and
	// any negative value builds no bundle, so nothing is cached and
	// finished journals are not kept. Ignored when Stores is set.
	CacheEntries int
	// Pipeline configures the underlying core pipeline. Its Metrics is
	// replaced by the service's own engine metrics, which /metrics and
	// /v1/stats read. Its SymexWorkers is the per-job budget of frontier
	// explorer goroutines: 0 auto-budgets to max(1, GOMAXPROCS / Workers)
	// so a fully loaded pool does not oversubscribe the machine, a negative
	// value selects one explorer, and a positive one passes through.
	Pipeline core.Config
	// Stores plugs a persistent store bundle (see OpenStores) behind every
	// pipeline artifact class, the journal, and the clone-fingerprint
	// cache; without it the service builds a memory-only bundle from the
	// same store table (see CacheEntries).
	// The caller owns the bundle: open it before New, close it after
	// Shutdown. While any store's disk tier is saturated, submissions are
	// rejected with ErrSaturated.
	Stores *Stores
	// Logger receives structured job-lifecycle logs; nil discards them.
	Logger *slog.Logger
	// TraceCapacity bounds the ring of retained finished job traces:
	// telemetry.DefaultTraceCapacity when 0, tracing disabled when
	// negative.
	TraceCapacity int
	// JournalCapacity bounds the events retained per job journal:
	// journal.DefaultCapacity when 0, journaling disabled when negative.
	JournalCapacity int
	// JournalVerbose additionally retains per-state frontier and per-call
	// solver events in each journal (journal.VerbVerbose).
	JournalVerbose bool
}

// Service owns a worker pool verifying submitted pairs. Create with New;
// stop with Shutdown.
type Service struct {
	cfg    Config
	pl     *core.Pipeline
	stores *Stores // Config.Stores, else a memory-only bundle; nil when caching is off
	queue  chan *Job
	wg     sync.WaitGroup
	reg    *telemetry.Registry
	log    *slog.Logger
	traces *telemetry.TraceRing
	met    *serviceMetrics

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string
	nextID      uint64
	scans       map[string]*Scan
	scanOrder   []string
	nextScanID  uint64
	batches     map[string]*Batch
	batchOrder  []string
	nextBatchID uint64
	closed      bool
	running     int
}

// New starts a service: the worker pool is live and accepting submissions
// when New returns.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.DiscardLogger()
	}
	s := &Service{
		cfg:     cfg,
		reg:     telemetry.NewRegistry(),
		log:     cfg.Logger,
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
		scans:   make(map[string]*Scan),
		batches: make(map[string]*Batch),
	}
	if cfg.TraceCapacity >= 0 {
		s.traces = telemetry.NewTraceRing(cfg.TraceCapacity)
	}
	s.stores = cfg.Stores
	if s.stores == nil && cfg.CacheEntries >= 0 {
		s.stores = memoryStores(cfg.CacheEntries)
	}
	// Metric registration must precede worker start so scrape-time
	// collectors never race a half-built service. The engine sinks are
	// always the service's own: /metrics and /v1/stats read them.
	s.met = newServiceMetrics(s, s.reg)
	pcfg := cfg.Pipeline
	pcfg.Metrics = s.met.engines
	if pcfg.SymexWorkers == 0 {
		pcfg.SymexWorkers = max(1, runtime.GOMAXPROCS(0)/cfg.Workers)
	} else {
		pcfg.SymexWorkers = max(1, pcfg.SymexWorkers)
	}
	s.pl = core.New(pcfg)
	// Every class is installed: the pipeline only touches ai/hy when their
	// layer is on.
	caches := make(map[string]core.Cache, len(core.Classes))
	for _, class := range core.Classes {
		if c := s.stores.cache(class); c != nil {
			caches[class] = c
		}
	}
	s.pl.SetCaches(caches)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the metrics registry (served at /metrics).
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Draining reports whether Shutdown has begun; the liveness endpoint turns
// 503 on a draining service so load balancers stop routing to it.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Trace returns the retained trace for a job: the live recorder while the
// job runs, else the finished trace if the ring still holds it.
func (s *Service) Trace(id string) (*telemetry.Trace, bool) {
	if j, ok := s.Job(id); ok {
		if tr := j.Trace(); tr != nil {
			return tr, true
		}
	}
	return s.traces.Get(id)
}

// Pipeline exposes the shared pipeline (primarily for tests that want to
// compare service results against direct verification).
func (s *Service) Pipeline() *core.Pipeline { return s.pl }

// Submit enqueues a verification. It never blocks: when the queue is at
// capacity the job is rejected with ErrQueueFull, and while the artifact
// store's disk tier is saturated it is rejected with ErrSaturated, so that
// callers (and the HTTP layer's 429 + Retry-After) can apply backpressure
// instead of piling up goroutines.
func (s *Service) Submit(pair *core.Pair) (*Job, error) {
	if pair == nil {
		return nil, errors.New("service: nil pair")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(); err != nil {
		return nil, err
	}
	return s.newJobLocked(pair)
}

// admitLocked runs the admission-control checks every submission path
// (single or batch) must pass: shutdown, injected capacity bursts, and
// artifact-store saturation. It accounts the rejection itself.
func (s *Service) admitLocked() error {
	if s.closed {
		s.rejectLocked(1)
		return ErrShutdown
	}
	// Injected capacity burst: reject exactly as a full queue would, so
	// clients exercise their backoff path under a deterministic schedule.
	if s.faults().Fire(faultinject.ServiceQueueFull) {
		s.rejectLocked(1)
		return ErrQueueFull
	}
	if s.stores.Saturated() {
		s.rejectLocked(1)
		return ErrSaturated
	}
	return nil
}

// rejectLocked accounts n rejected submissions.
func (s *Service) rejectLocked(n int) {
	s.met.rejected.Add(uint64(n))
}

// RetryAfter is the backoff the service advises rejected clients to take
// before resubmitting: the saturation hold while the artifact store is
// refusing writes, else a one-second queue-drain interval. Served as the
// Retry-After header on 429 responses.
func (s *Service) RetryAfter() time.Duration {
	if s.stores.Saturated() {
		return artifact.DefaultSaturationHold
	}
	return time.Second
}

// newJobLocked creates, registers, and enqueues one job. Callers hold s.mu
// and have already passed admission control.
func (s *Service) newJobLocked(pair *core.Pair) (*Job, error) {
	ctx := context.Background()
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	// Injected deadline expiry: collapse the job's deadline to effectively
	// now, modelling a job that times out no matter what the work costs.
	if s.faults().Fire(faultinject.ServiceJobDeadline) {
		cancel()
		ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	}
	s.nextID++
	job := &Job{
		id:        fmt.Sprintf("job-%d", s.nextID),
		pair:      pair,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     JobQueued,
		submitted: time.Now(),
	}
	// The journal attaches at submission, not start, so streaming readers
	// can already follow a queued job and observe its first event live.
	job.journal = s.newJournal(job.id)
	select {
	case s.queue <- job:
	default:
		s.rejectLocked(1)
		s.nextID-- // the rejected job never existed
		cancel()
		return nil, ErrQueueFull
	}
	s.met.submitted.Inc()
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.log.Debug("job submitted", "job", job.id, "pair", pair.Name)
	return job, nil
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every known job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Cancel requests cancellation of a job by ID, reporting whether the job
// exists.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.Cancel()
	return true
}

// Shutdown stops accepting submissions and drains queued plus in-flight
// jobs. When ctx expires first, every unfinished job is cancelled
// cooperatively; Shutdown still waits for the workers to observe the
// cancellation (they return promptly via the stop plumbing) and then
// returns ctx.Err().
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer s.recoverToLog("shutdown.waiter")
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.Cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

func (s *Service) runJob(j *Job) {
	// A job cancelled while still queued finishes without running.
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, nil, err)
		return
	}
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	wait := j.started.Sub(j.submitted)
	if s.traces != nil {
		j.trace = telemetry.NewTrace(j.id, "verify")
	}
	tr := j.trace
	rec := j.journal
	j.mu.Unlock()
	s.met.queueWait.Observe(wait.Seconds())
	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	jl := s.log.With("job", j.id, "pair", j.pair.Name)
	jl.Info("job started", "queue_wait_ms", wait.Milliseconds())
	ctx := telemetry.WithLogger(j.ctx, jl)
	ctx = telemetry.WithTrace(ctx, tr)
	ctx = journal.With(ctx, rec)
	rep, err := s.verifyJob(ctx, j)

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	s.finishJob(j, rep, err)
}

// verifyJob is the panic containment boundary of a worker: a panic escaping
// the pipeline becomes a structured job error instead of terminating the
// process, so one poisoned pair cannot take down the service or its queue.
func (s *Service) verifyJob(ctx context.Context, j *Job) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := faultinject.Recovered("service.job", r)
			s.faults().CountRecovered()
			s.log.Error("panic recovered in job runner",
				"job", j.id, "pair", j.pair.Name, "panic", fmt.Sprint(r))
			rep, err = nil, pe
		}
	}()
	return s.pl.VerifyContext(ctx, j.pair)
}

// faults is the nil-tolerant accessor for the configured injector.
func (s *Service) faults() *faultinject.Injector { return s.cfg.Pipeline.Faults }

// recoverToLog contains a panic on an internal service goroutine, logging it
// instead of crashing the process.
func (s *Service) recoverToLog(site string) {
	if r := recover(); r != nil {
		s.faults().CountRecovered()
		s.log.Error("panic recovered", "site", site, "panic", fmt.Sprint(r))
	}
}

func (s *Service) finishJob(j *Job, rep *core.Report, err error) {
	j.mu.Lock()
	j.report = rep
	j.err = err
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = JobDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = JobCancelled
	default:
		j.state = JobFailed
	}
	state := j.state
	// Finished traces move from the job to the bounded ring: the jobs map
	// retains every job, the ring is what bounds trace memory.
	tr := j.trace
	j.trace = nil
	rec := j.journal
	j.mu.Unlock()
	j.cancel() // release the deadline timer, if any
	tr.Finish()
	s.traces.Put(tr)
	// Like traces, finished journals leave the job: they persist as
	// content-addressed JSONL artifacts in the journal store, which is what
	// bounds their memory. Must happen before close(j.done) so waiters
	// observing completion can already read the persisted journal;
	// persistJournal clears j.journal only once the key is recorded, so
	// concurrent readers always see one of the two forms.
	s.persistJournal(j, rec)

	// Counted under s.mu, like submitted and rejected, so a Stats snapshot
	// reads all five lifecycle counters at one point in time.
	s.mu.Lock()
	switch state {
	case JobDone:
		s.met.completed.Inc()
	case JobCancelled:
		s.met.cancelled.Inc()
	default:
		s.met.failed.Inc()
	}
	s.mu.Unlock()
	if state == JobDone {
		s.met.verdicts[rep.Verdict].Inc()
		s.met.types[rep.Type].Inc()
	}

	switch state {
	case JobDone:
		s.log.Info("job done", "job", j.id, "pair", j.pair.Name,
			"verdict", rep.Verdict.String(), "type", rep.Type.String(),
			"reason", string(rep.Reason))
	case JobCancelled:
		s.log.Info("job cancelled", "job", j.id, "pair", j.pair.Name)
	default:
		s.log.Warn("job failed", "job", j.id, "pair", j.pair.Name, "err", err.Error())
	}

	// Closing done hands the report to waiters; it must be the last read
	// the service performs on it.
	close(j.done)
}
