// Command octopocs verifies propagated vulnerabilities over the built-in
// Table II corpus.
//
// Usage:
//
//	octopocs -all                 verify the 15 Table II rows (-pair takes 1-21)
//	octopocs -all -workers 4      same, concurrently via the service pool
//	octopocs -pair 8              verify one Table II row
//	octopocs -pair 9 -poc out.bin write the reformed PoC to a file
//	octopocs -pair 8 -symex-workers 4  explore P2 with 4 frontier goroutines
//	octopocs -pair 3 -context-free  ablation: disable context-aware taint
//	octopocs -pair 8 -static-cfg    ablation: static CFG only
//	octopocs -pair 16 -static       static pre-analysis: verify, fold, prune
//	octopocs scan -source 7       discover row 7's clones, verify candidates
//	octopocs scan -all-sources    batch-scan every corpus CVE (see scan.go)
//	octopocs -all -store-dir ./store   persist phase artifacts; warm reruns reuse them
//	octopocs -pair 8 -journal j.jsonl  save the verdict provenance journal
//	octopocs explain j.jsonl      render a journal as a narrative (explain.go)
//	octopocs explain -addr http://host:8344 job-3  fetch and render a job
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/faultinject"
	"octopocs/internal/journal"
	"octopocs/internal/service"
	"octopocs/internal/telemetry"
	"octopocs/internal/trace"
	"octopocs/internal/vm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "octopocs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "scan" {
		return runScan(args[1:])
	}
	if len(args) > 0 && args[0] == "explain" {
		return runExplain(args[1:])
	}
	fs := flag.NewFlagSet("octopocs", flag.ContinueOnError)
	var (
		all         = fs.Bool("all", false, "verify the 15 Table II rows (-pair also takes rows 16-21)")
		pairIdx     = fs.Int("pair", 0, "verify one corpus row (1-15 Table II, 16-17 static set, 18-21 hybrid set)")
		pocOut      = fs.String("poc", "", "write the reformed PoC to this file")
		contextFree = fs.Bool("context-free", false, "disable context-aware taint analysis")
		staticCFG   = fs.Bool("static-cfg", false, "disable dynamic CFG discovery")
		static      = fs.Bool("static", false, "enable the static pre-analysis (MIR verifier, constant folding, dead-block pruning, statically-unreachable short-circuit)")
		absintOn    = fs.Bool("absint", false, "enable abstract-interpretation value ranges: branch oracle for symbolic execution, plus stronger pruning with -static")
		hybridOn    = fs.Bool("hybrid", false, "enable the directed-fuzzing fallback: rescue theta- and budget-exhausted symex outcomes with a replay-confirmed campaign crash (verdict triggered-by-fuzzing)")
		verbose     = fs.Bool("v", false, "print crash primitives and crash details")
		workers     = fs.Int("workers", 0, "with -all: verify pairs concurrently with this many service workers (0 = sequential)")
		symexWork   = fs.Int("symex-workers", 0, "frontier explorer goroutines per symbolic execution (0 = GOMAXPROCS, negative = one)")
		prioritize  = fs.Bool("prioritize", false, "verify all pairs and print a patch-priority list (§ VII practical usage)")
		explain     = fs.Bool("explain", false, "with -pair: show the S-on-poc and T-on-poc' traces and the preserved ℓ path")
		withTrace   = fs.Bool("trace", false, "dump each job's phase/sub-step span tree as JSON after its report")
		journalOut  = fs.String("journal", "", "write the verdict provenance journal(s) as JSONL to this file; render with `octopocs explain`")
		journalVerb = fs.Bool("journal-verbose", false, "with -journal: also record per-state frontier and per-call solver events")
		storeDir    = fs.String("store-dir", "", "persistent artifact store directory; repeat runs reuse phase artifacts (implies -workers 1 when unset)")
		storeBudget = fs.Int64("store-budget", 0, "persistent store disk budget in MiB across all classes (0 = default)")
		logLevel    = fs.String("log-level", "warn", "log level: debug, info, warn, error")
		logFormat   = fs.String("log-format", "text", "log format: text or json")
		faultSched  = fs.String("fault-schedule", "", "deterministic fault-injection schedule, e.g. 'seed=42;solver.sat:nth=2|5' (chaos testing; off by default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	faults, err := parseFaults(*faultSched)
	if err != nil {
		return err
	}
	if !*all && *pairIdx == 0 && !*prioritize {
		fs.Usage()
		return fmt.Errorf("pass -all, -pair N, or -prioritize")
	}
	if *prioritize {
		return runPrioritize(core.Config{ContextFree: *contextFree, StaticCFGOnly: *staticCFG,
			StaticPrune: *static, Absint: *absintOn, HybridFuzz: *hybridOn,
			SymexWorkers: symexBudget(*symexWork), Faults: faults})
	}

	cfg := core.Config{ContextFree: *contextFree, StaticCFGOnly: *staticCFG,
		StaticPrune: *static, Absint: *absintOn, HybridFuzz: *hybridOn,
		SymexWorkers: symexBudget(*symexWork), Faults: faults}

	var specs []*corpus.PairSpec
	if *all {
		specs = corpus.All()
	} else {
		spec := corpus.ByIdx(*pairIdx)
		if spec == nil {
			return fmt.Errorf("no corpus pair with index %d (valid: 1-21)", *pairIdx)
		}
		specs = []*corpus.PairSpec{spec}
	}

	var jopts *journal.Options
	if *journalOut != "" {
		jopts = &journal.Options{}
		if *journalVerb {
			jopts.Verbosity = journal.VerbVerbose
		}
	}
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
		defer stores.Close()
		if *workers == 0 {
			// The store hangs off the service layer; route even sequential
			// runs through a one-worker pool so artifacts persist.
			*workers = 1
		}
	}
	reports, traces, journals, err := verifyAll(specs, cfg, *workers, *symexWork, stores, logger, *withTrace, jopts)
	if err != nil {
		return err
	}

	for i, spec := range specs {
		rep := reports[i]
		printReport(spec, rep, *verbose)
		if *withTrace && traces[i] != nil {
			if err := dumpTrace(os.Stdout, traces[i]); err != nil {
				return err
			}
		}
		if *explain {
			explainPair(spec, rep)
		}
		if *pocOut != "" && rep.PoCGenerated() {
			if err := os.WriteFile(*pocOut, rep.PoCPrime, 0o644); err != nil {
				return fmt.Errorf("write poc': %w", err)
			}
			fmt.Printf("  reformed PoC written to %s (%d bytes)\n", *pocOut, len(rep.PoCPrime))
		}
	}
	if *journalOut != "" {
		if err := writeJournals(*journalOut, journals); err != nil {
			return err
		}
	}
	return nil
}

// writeJournals concatenates the per-pair journals into one JSONL file; the
// job.start/verdict events delimit each pair's chain when rendered.
func writeJournals(path string, journals [][]journal.Event) error {
	var buf bytes.Buffer
	total := 0
	for _, evs := range journals {
		if err := journal.EncodeJSONL(&buf, evs); err != nil {
			return fmt.Errorf("encode journal: %w", err)
		}
		total += len(evs)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write journal: %w", err)
	}
	fmt.Printf("journal written to %s (%d events); render with `octopocs explain %s`\n",
		path, total, path)
	return nil
}

// parseFaults builds the fault injector from the -fault-schedule flag; an
// empty schedule (the default) disables injection entirely.
func parseFaults(schedule string) (*faultinject.Injector, error) {
	sch, err := faultinject.ParseSchedule(schedule)
	if err != nil {
		return nil, fmt.Errorf("-fault-schedule: %w", err)
	}
	return faultinject.New(sch), nil
}

// symexBudget maps the -symex-workers flag onto core.Config.SymexWorkers for
// a direct in-process pipeline: positive values pass through, 0 auto-sizes to
// GOMAXPROCS, and negative values select one explorer.
func symexBudget(flagVal int) int {
	if flagVal == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(1, flagVal)
}

// verifyAll collects one report per spec, in spec order, plus the span
// trace of each run when withTrace is set and the provenance journal of
// each run when jopts is non-nil (nil entries otherwise). With workers > 0
// the pairs run concurrently through a service worker pool (sharing phase
// artifacts via its cache); otherwise a single pipeline runs them in turn.
func verifyAll(specs []*corpus.PairSpec, cfg core.Config, workers, symexWorkers int, stores *service.Stores, logger *slog.Logger, withTrace bool, jopts *journal.Options) ([]*core.Report, []*telemetry.Trace, [][]journal.Event, error) {
	reports := make([]*core.Report, len(specs))
	traces := make([]*telemetry.Trace, len(specs))
	journals := make([][]journal.Event, len(specs))
	if workers > 0 {
		traceCap := -1
		if withTrace {
			traceCap = len(specs)
		}
		// The raw flag goes to the service, which auto-budgets 0 to
		// GOMAXPROCS/Workers so pairs-in-parallel and frontier goroutines
		// don't multiply against each other.
		svcCfg := service.Config{
			Workers:       workers,
			QueueDepth:    len(specs),
			Pipeline:      cfg,
			Logger:        logger,
			TraceCapacity: traceCap,
			SymexWorkers:  symexWorkers,
			Stores:        stores,
		}
		if jopts != nil {
			svcCfg.JournalCapacity = jopts.Capacity
			svcCfg.JournalVerbose = jopts.Verbosity >= journal.VerbVerbose
		}
		svc := service.New(svcCfg)
		defer svc.Shutdown(context.Background())
		jobs := make([]*service.Job, len(specs))
		for i, spec := range specs {
			job, err := svc.Submit(spec.Pair)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("pair %d: %w", spec.Idx, err)
			}
			jobs[i] = job
		}
		for i, job := range jobs {
			rep, err := job.Wait(context.Background())
			if err != nil {
				return nil, nil, nil, fmt.Errorf("pair %d: %w", specs[i].Idx, err)
			}
			reports[i] = rep
			traces[i], _ = svc.Trace(job.ID())
			if jopts != nil {
				journals[i], _ = svc.JournalEvents(job.ID(), 0)
			}
		}
		return reports, traces, journals, nil
	}
	pipeline := core.New(cfg)
	for i, spec := range specs {
		ctx := telemetry.WithLogger(context.Background(), logger)
		if withTrace {
			traces[i] = telemetry.NewTrace(fmt.Sprintf("pair-%d", spec.Idx), "verify")
			ctx = telemetry.WithTrace(ctx, traces[i])
		}
		var rec *journal.Recorder
		if jopts != nil {
			rec = journal.New(fmt.Sprintf("pair-%d", spec.Idx), *jopts)
			ctx = journal.With(ctx, rec)
		}
		rep, err := pipeline.VerifyContext(ctx, spec.Pair)
		traces[i].Finish()
		rec.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("pair %d: %w", spec.Idx, err)
		}
		reports[i] = rep
		journals[i] = rec.Events()
	}
	return reports, traces, journals, nil
}

// dumpTrace writes the span tree as indented JSON, matching the shape of
// the service's GET /v1/jobs/{id}/trace response.
func dumpTrace(w io.Writer, tr *telemetry.Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("  ", "  ")
	fmt.Fprint(w, "  ")
	return enc.Encode(tr.Snapshot())
}

// explainPair renders the Figure-1 picture for one verified pair: the two
// traces reach the shared code through different guiding inputs and then
// follow the same ℓ path to the crash.
func explainPair(spec *corpus.PairSpec, rep *core.Report) {
	fmt.Printf("\n--- S (%s) on the original poc ---\n", spec.SName)
	sTrace := trace.Record(spec.Pair.S, vm.Config{Input: spec.Pair.PoC, MaxSteps: spec.Pair.MaxSteps})
	fmt.Print(sTrace)
	if !rep.PoCGenerated() {
		fmt.Println("\nno poc' was generated; nothing to compare")
		return
	}
	fmt.Printf("\n--- T (%s) on the reformed poc' ---\n", spec.TName)
	tTrace := trace.Record(spec.Pair.T, vm.Config{Input: rep.PoCPrime, MaxSteps: spec.Pair.MaxSteps})
	fmt.Print(tTrace)
	same, diff := trace.SamePath(sTrace, tTrace, spec.Pair.Lib)
	if same {
		fmt.Printf("\nℓ path preserved (%v): the reform changed only the way in\n",
			sTrace.LibPath(spec.Pair.Lib))
	} else {
		fmt.Printf("\nℓ paths differ: %s\n", diff)
	}
}

// Patch-priority buckets of -prioritize, most urgent first.
const (
	bucketUrgent = iota
	bucketReview
	bucketDeferred
	numBuckets
)

// bucketOf files a verdict under its patch priority. Both triggered
// verdicts carry a crash inside ℓ confirmed by concrete replay, so they are
// urgent whether the poc′ was reformed or fuzzed. Only a proof of
// non-triggerability defers; no sound verdict, or a verdict this switch
// does not know, goes to manual review.
func bucketOf(v core.Verdict) int {
	switch v {
	case core.VerdictTriggered, core.VerdictTriggeredByFuzzing:
		return bucketUrgent
	case core.VerdictNotTriggerable:
		return bucketDeferred
	case core.VerdictFailure:
		return bucketReview
	default:
		return bucketReview
	}
}

// runPrioritize implements the paper's practical-usage workflow (§ VII):
// verify every detected clone and order the patching work by urgency —
// triggered clones first, unverifiable ones next (they need manual review),
// proven-dead clones last.
func runPrioritize(cfg core.Config) error {
	pipeline := core.New(cfg)
	type entry struct {
		spec *corpus.PairSpec
		rep  *core.Report
	}
	var buckets [numBuckets][]entry
	for _, spec := range corpus.All() {
		rep, err := pipeline.Verify(spec.Pair)
		if err != nil {
			return fmt.Errorf("pair %d: %w", spec.Idx, err)
		}
		b := bucketOf(rep.Verdict)
		buckets[b] = append(buckets[b], entry{spec, rep})
	}
	print := func(title string, entries []entry, note string) {
		fmt.Printf("%s (%d) — %s\n", title, len(entries), note)
		for _, e := range entries {
			fmt.Printf("  [%2d] %-42s %s (%s)\n", e.spec.Idx, e.spec.Label(), e.spec.CVE, e.rep.Type)
		}
		fmt.Println()
	}
	print("PATCH NOW", buckets[bucketUrgent], "a replay-confirmed poc′ triggers the propagated vulnerability")
	print("MANUAL REVIEW", buckets[bucketReview], "no sound verdict; analyze by hand")
	print("DEFERRABLE", buckets[bucketDeferred], "proven not triggerable; patch during routine maintenance")
	return nil
}

func printReport(spec *corpus.PairSpec, rep *core.Report, verbose bool) {
	fmt.Printf("[%2d] %-40s %-16s %-9s", spec.Idx, spec.Label(), rep.Verdict, rep.Type)
	if rep.Reason != "" {
		fmt.Printf("  (%s)", rep.Reason)
	}
	fmt.Println()
	if !verbose {
		return
	}
	fmt.Printf("     vulnerability: %s (%s), ep: %s\n", spec.CVE, spec.CWE, rep.Ep)
	if rep.Static != nil {
		fmt.Printf("     static: %s\n", rep.Static)
	}
	if rep.SCrash != nil {
		fmt.Printf("     S crash: %s\n", rep.SCrash)
	}
	for _, b := range rep.Bunches {
		fmt.Printf("     bunch %d @%d: % x (ep args %v)\n", b.Seq, b.Start, b.Bytes, b.Args)
	}
	if rep.PoCGenerated() {
		fmt.Printf("     poc' (%d bytes): % x\n", len(rep.PoCPrime), rep.PoCPrime)
	}
	if rep.TCrash != nil {
		fmt.Printf("     T crash: %s\n", rep.TCrash)
	}
}
