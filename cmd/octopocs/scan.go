package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"octopocs/internal/corpus"
	"octopocs/internal/service"
	"octopocs/internal/telemetry"
)

// runScan implements the `octopocs scan` mode: clone-detection retrieval
// over the built-in corpus followed by batch verification of every ranked
// candidate, through the same service pool as -all.
//
//	octopocs scan -source 7              fan row 7's CVE across all 21 targets
//	octopocs scan -source 7 -find-ep     anchor candidates on the derived ep
//	octopocs scan -source 7 -retrieve-only  rank only, skip verification
//	octopocs scan -all-sources           scan every corpus CVE in turn
func runScan(args []string) error {
	fs := flag.NewFlagSet("octopocs scan", flag.ContinueOnError)
	var (
		source       = fs.Int("source", 0, "corpus row (1-21) whose CVE to scan for")
		allSources   = fs.Bool("all-sources", false, "scan every corpus CVE")
		retrieveOnly = fs.Bool("retrieve-only", false, "rank candidates without verifying them")
		findEp       = fs.Bool("find-ep", false, "derive the entry point from the S crash and anchor candidates on it")
		minScore     = fs.Float64("min-score", 0, "retrieval match threshold (0 = default)")
		topK         = fs.Int("top-k", 0, "bound ranked candidates per scan (0 = all)")
		workers      = fs.Int("workers", 2, "verification worker-pool size")
		jsonOut      = fs.String("json", "", "write the scan statuses as JSON to this file ('-' for stdout)")
		logLevel     = fs.String("log-level", "warn", "log level: debug, info, warn, error")
		logFormat    = fs.String("log-format", "text", "log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	var sources []int
	switch {
	case *allSources:
		for _, spec := range corpus.Rows() {
			sources = append(sources, spec.Idx)
		}
	case *source != 0:
		if corpus.ByIdx(*source) == nil {
			return fmt.Errorf("no corpus pair with index %d (valid: 1-21)", *source)
		}
		sources = []int{*source}
	default:
		fs.Usage()
		return fmt.Errorf("pass -source N or -all-sources")
	}

	svc := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: len(corpus.Rows()) * len(sources),
		Logger:     logger,
	})
	defer svc.Shutdown(context.Background())

	var statuses []service.ScanStatus
	for _, idx := range sources {
		sc, err := svc.StartScan(&service.ScanRequest{
			CorpusIdx:     idx,
			CorpusTargets: true,
			FindEp:        *findEp,
			RetrieveOnly:  *retrieveOnly,
			MinScore:      *minScore,
			TopK:          *topK,
		})
		if err != nil {
			return fmt.Errorf("scan source %d: %w", idx, err)
		}
		if err := sc.Wait(context.Background()); err != nil {
			return err
		}
		st := sc.Snapshot()
		statuses = append(statuses, st)
		printScan(idx, st, *retrieveOnly)
	}
	if *jsonOut != "" {
		return writeScanJSON(*jsonOut, statuses)
	}
	return nil
}

func printScan(idx int, st service.ScanStatus, retrieveOnly bool) {
	fmt.Printf("scan %s: source [%2d] %s (family %s), %d targets indexed, %d candidates",
		st.ID, idx, st.Name, corpus.CloneFamilyOf(idx), st.Index.Targets, len(st.Candidates))
	if st.Ep != "" {
		fmt.Printf(", ep %s", st.Ep)
	}
	if !retrieveOnly {
		fmt.Printf(", %d confirmed", st.Confirmed)
	}
	fmt.Println()
	for rank, c := range st.Candidates {
		fmt.Printf("  #%d %-12s score %.3f  ℓ=%v", rank+1, c.Target, c.Score, c.Lib)
		switch {
		case c.Error != "":
			fmt.Printf("  error: %s", c.Error)
		case c.Verdict != "":
			fmt.Printf("  %s (%s)", c.Verdict, c.Type)
		}
		fmt.Println()
	}
}

func writeScanJSON(path string, statuses []service.ScanStatus) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(statuses)
}
