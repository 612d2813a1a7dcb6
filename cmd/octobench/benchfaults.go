package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/faultinject"
)

// faultBenchSchedule is the canned chaos load of the benchmark: roughly one
// in ten Sat checks fails transiently, one worker panic is injected, and
// the shared SAT-verdict cache is bypassed half the time. All faults are
// transient or degraded, so verdict equality with the fault-free run is a
// hard invariant, not a statistic.
const faultBenchSchedule = "seed=7;solver.sat:rate=0.1,count=4;symex.worker_panic:nth=1;solver.cache:rate=0.5"

// FaultBenchRow is one (pair, faults mode) measurement of
// BENCH_faults.json: the full-pipeline verification cost without and with
// the canned fault schedule.
type FaultBenchRow struct {
	Pair    string `json:"pair"`
	Idx     int    `json:"idx"`
	Faults  bool   `json:"faults"`
	Verdict string `json:"verdict"`
	Type    string `json:"type"`
	PoC     bool   `json:"poc_generated"`
	// Fault accounting; zero-valued on faults=false rows.
	Injected  uint64  `json:"faults_injected,omitempty"`
	Retried   uint64  `json:"faults_retried,omitempty"`
	Recovered uint64  `json:"faults_recovered,omitempty"`
	Degraded  uint64  `json:"faults_degraded,omitempty"`
	WallMs    float64 `json:"wall_ms"`
	// VerdictStable is true when the faulted run reproduced the fault-free
	// verdict, type, and poc' bytes exactly.
	VerdictStable bool `json:"verdict_stable"`
}

// faultBenchTotals aggregates the headline overhead comparison.
type faultBenchTotals struct {
	WallMsClean   float64 `json:"wall_ms_clean"`
	WallMsFaulted float64 `json:"wall_ms_faulted"`
	Injected      uint64  `json:"faults_injected"`
	Retried       uint64  `json:"faults_retried"`
	Recovered     uint64  `json:"faults_recovered"`
	Degraded      uint64  `json:"faults_degraded"`
	StablePairs   int     `json:"stable_pairs"`
}

// faultBenchFile is the BENCH_faults.json document.
type faultBenchFile struct {
	Host       hostMeta         `json:"host"`
	Note       string           `json:"note"`
	Schedule   string           `json:"schedule"`
	Pairs      int              `json:"pairs"`
	Totals     faultBenchTotals `json:"totals"`
	Benchmarks []FaultBenchRow  `json:"benchmarks"`
}

// benchFaults verifies every corpus pair once fault-free and once under the
// canned transient/degraded fault schedule (a fresh injector per pair, so
// the schedule replays identically for each), and writes the per-pair
// retry/recovery cost to path. A faulted run whose verdict, type, or poc'
// diverges from the clean run fails the benchmark outright — throughput
// numbers for an unsound pipeline are worthless.
func benchFaults(path string) error {
	out := faultBenchFile{
		Host: currentHost(),
		Note: "each pair is verified twice by a fresh pipeline: faults=false is the clean " +
			"baseline, faults=true replays the canned schedule through a fresh injector. " +
			"All scheduled faults are transient or degraded, so verdict_stable must be true " +
			"on every row; wall_ms quantifies the retry/backoff overhead.",
		Schedule: faultBenchSchedule,
	}
	specs := append(corpus.All(), corpus.StaticSet()...)
	out.Pairs = len(specs)
	for _, spec := range specs {
		var clean *core.Report
		for _, withFaults := range []bool{false, true} {
			// Retry.Max covers the schedule's worst case (4 sat faults + 1
			// worker panic could all land in one phase), so recovery is
			// guaranteed rather than probabilistic.
			cfg := core.Config{Retry: core.RetryPolicy{Max: 6, BaseDelay: time.Millisecond}}
			var in *faultinject.Injector
			if withFaults {
				sch, err := faultinject.ParseSchedule(faultBenchSchedule)
				if err != nil {
					return err
				}
				in = faultinject.New(sch)
				cfg.Faults = in
			}
			pl := core.New(cfg)
			start := time.Now()
			rep, err := pl.Verify(spec.Pair)
			wall := time.Since(start)
			if err != nil {
				return fmt.Errorf("pair %d faults=%v: %w", spec.Idx, withFaults, err)
			}
			row := FaultBenchRow{
				Pair:    spec.Pair.Name,
				Idx:     spec.Idx,
				Faults:  withFaults,
				Verdict: rep.Verdict.String(),
				Type:    rep.Type.String(),
				PoC:     rep.PoCGenerated(),
				WallMs:  float64(wall.Microseconds()) / 1e3,
			}
			if withFaults {
				row.Injected = in.Injected()
				row.Retried = in.RetriedCount()
				row.Recovered = in.RecoveredCount()
				row.Degraded = in.DegradedCount()
				row.VerdictStable = rep.Verdict == clean.Verdict && rep.Type == clean.Type &&
					string(rep.PoCPrime) == string(clean.PoCPrime)
				if !row.VerdictStable {
					return fmt.Errorf("pair %d: faulted verdict %s/%s diverged from clean %s/%s",
						spec.Idx, row.Verdict, row.Type, clean.Verdict, clean.Type)
				}
				out.Totals.WallMsFaulted += row.WallMs
				out.Totals.Injected += row.Injected
				out.Totals.Retried += row.Retried
				out.Totals.Recovered += row.Recovered
				out.Totals.Degraded += row.Degraded
				out.Totals.StablePairs++
			} else {
				clean = rep
				row.VerdictStable = true
				out.Totals.WallMsClean += row.WallMs
			}
			out.Benchmarks = append(out.Benchmarks, row)
			fmt.Printf("[%2d] %-32s faults=%-5v %-15s %3d injected %3d retried %8.2f ms\n",
				spec.Idx, spec.Pair.Name, withFaults, row.Verdict,
				row.Injected, row.Retried, row.WallMs)
		}
	}
	fmt.Printf("totals: wall %0.2f ms -> %0.2f ms, %d injected, %d retried, %d recovered, %d degraded, %d/%d stable\n",
		out.Totals.WallMsClean, out.Totals.WallMsFaulted, out.Totals.Injected,
		out.Totals.Retried, out.Totals.Recovered, out.Totals.Degraded,
		out.Totals.StablePairs, out.Pairs)

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
