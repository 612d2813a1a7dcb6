// Command octoserved exposes the OCTOPOCS verification pipeline as an HTTP
// service: submit (S, T, poc) pairs, poll job status, fetch reports, reformed
// PoCs and per-job phase traces, and watch queue/cache statistics. POST
// /v1/scan additionally runs the clone-detection front end: one source CVE is
// matched against an indexed target corpus and every ranked candidate is
// fanned out as a verification job (see internal/clonedet). Metrics are
// served in Prometheus text form at /metrics; an optional debug listener
// exposes net/http/pprof.
//
// Usage:
//
//	octoserved [-addr :8344] [-workers N] [-symex-workers N] [-queue N]
//	           [-cache N] [-timeout D] [-traces N] [-drain D] [-static]
//	           [-journal N] [-journal-verbose]
//	           [-store-dir DIR] [-store-budget MIB]
//	           [-log-level info] [-log-format text] [-debug-addr ADDR]
//
// With -store-dir the phase artifacts (P1 crash primitives, P2/static
// preparation, finished-job journals, clone fingerprints) persist to a
// tiered on-disk store and survive restarts: a warm instance serves repeat
// verifications without recomputing. When the disk tier refuses writes,
// submissions answer 429 with a Retry-After header; see OPERATIONS.md.
//
// Every job records a verdict provenance journal served at GET
// /v1/jobs/{id}/events (JSON pages via ?after=, live following via
// ?stream=1 or Accept: text/event-stream); `octopocs explain -addr ... job-N`
// renders it as a narrative.
//
// The server drains in-flight verifications on SIGINT/SIGTERM before
// exiting; a second signal aborts them cooperatively. While draining,
// /healthz answers 503 so load balancers stop routing to the instance.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/faultinject"
	"octopocs/internal/service"
	"octopocs/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "octoserved:", err)
		os.Exit(1)
	}
}

func run(args []string, logOut *os.File) error {
	fs := flag.NewFlagSet("octoserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	symexWorkers := fs.Int("symex-workers", 0, "frontier explorer goroutines per job (0 = auto GOMAXPROCS/workers, negative = one)")
	queue := fs.Int("queue", service.DefaultQueueDepth, "job queue depth")
	cache := fs.Int("cache", service.DefaultCacheEntries, "entries per class of the memory-only store bundle (negative disables caching); ignored with -store-dir")
	timeout := fs.Duration("timeout", 0, "per-job deadline (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "max time to drain in-flight jobs on shutdown")
	traces := fs.Int("traces", 0, "retained finished job traces (0 = default, negative disables)")
	static := fs.Bool("static", false, "enable the static pre-analysis for all jobs (per-job \"static\" field overrides)")
	absintOn := fs.Bool("absint", false, "enable abstract-interpretation value ranges as a cached phase for all jobs: branch oracle for symbolic execution, shared with -static pruning")
	hybridOn := fs.Bool("hybrid", false, "enable the directed-fuzzing fallback for all jobs: rescue theta- and budget-exhausted symex outcomes with a replay-confirmed campaign crash")
	journalCap := fs.Int("journal", 0, "events retained per job provenance journal (0 = default, negative disables journaling)")
	storeDir := fs.String("store-dir", "", "persistent artifact store directory; empty runs memory-only")
	storeBudget := fs.Int64("store-budget", 0, "persistent store disk budget in MiB across all classes (0 = default)")
	journalVerbose := fs.Bool("journal-verbose", false, "retain per-state frontier and per-call solver events in job journals")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	debugAddr := fs.String("debug-addr", "", "optional second listener serving net/http/pprof (e.g. 127.0.0.1:8345)")
	faultSched := fs.String("fault-schedule", "", "deterministic fault-injection schedule, e.g. 'seed=42;solver.sat:nth=2|5' (chaos testing; off by default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(logOut, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	faultSchedule, err := faultinject.ParseSchedule(*faultSched)
	if err != nil {
		return fmt.Errorf("-fault-schedule: %w", err)
	}
	// One injector shared by the pipeline and the stores, so a schedule's
	// nth= counters fire once across the whole process.
	faults := faultinject.New(faultSchedule)

	var stores *service.Stores
	if *storeDir != "" {
		stores, err = service.OpenStores(service.StoreOptions{
			Dir:        *storeDir,
			DiskBudget: *storeBudget << 20,
			Faults:     faults,
			Logger:     logger,
		})
		if err != nil {
			return err
		}
		// The service only borrows the stores; close them after it drains.
		defer stores.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var debugLn net.Listener
	if *debugAddr != "" {
		if debugLn, err = net.Listen("tcp", *debugAddr); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return serve(ctx, ln, debugLn, service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		JobTimeout:      *timeout,
		TraceCapacity:   *traces,
		JournalCapacity: *journalCap,
		JournalVerbose:  *journalVerbose,
		Stores:          stores,
		Pipeline: core.Config{StaticPrune: *static, Absint: *absintOn, HybridFuzz: *hybridOn,
			SymexWorkers: *symexWorkers, Faults: faults},
		Logger: logger,
	}, *drain, logger)
}

// debugMux builds the pprof handler set on a private mux, so the profiling
// surface is bound only to the opt-in debug listener and never exposed on
// the API address.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the service on ln until ctx is cancelled, then shuts down:
// first the HTTP listeners, then the worker pool, giving in-flight jobs up
// to drain before cancelling them cooperatively. debugLn, when non-nil,
// serves pprof for the lifetime of the server.
func serve(ctx context.Context, ln, debugLn net.Listener, cfg service.Config, drain time.Duration, logger *slog.Logger) error {
	svc := service.New(cfg)
	srv := &http.Server{Handler: svc.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var dsrv *http.Server
	if debugLn != nil {
		dsrv = &http.Server{Handler: debugMux()}
		go func() {
			if err := dsrv.Serve(debugLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug server", "err", err.Error())
			}
		}()
		logger.Info("pprof listening", "addr", debugLn.Addr().String())
	}
	logger.Info("listening", "addr", ln.Addr().String(),
		"workers", cfg.Workers, "queue", cfg.QueueDepth)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining jobs", "drain", drain.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if dsrv != nil {
		dsrv.Close()
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		logger.Warn("drain incomplete, jobs cancelled", "err", err.Error())
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained cleanly")
	return nil
}
