package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultsFile is the document -out writes and -compare reads.
type resultsFile struct {
	Host      host                     `json:"host"`
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Trace     bool                     `json:"trace"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// workloadRuns holds every run of one workload and, per metric, the median
// and the spread across them.
type workloadRuns struct {
	Runs    []result           `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

type summary struct {
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	IQRShare float64   `json:"iqr_share"`
	Values   []float64 `json:"values"`
}

func (wr *workloadRuns) summarize(defs []metricDef) {
	wr.Summary = make(map[string]summary, len(defs))
	for _, d := range defs {
		var vals []float64
		for _, r := range wr.Runs {
			if m, ok := r.Metrics[d.name]; ok {
				vals = append(vals, m.Value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		q1, q3 := quartiles(vals)
		wr.Summary[d.name] = summary{Unit: d.unit, Median: median(vals), Q1: q1, Q3: q3, IQRShare: iqrShare(vals), Values: vals}
	}
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMode judges result set b against result set a, one row per
// end-to-end metric and workload: "agree" when b's median is not worse than
// a's by more than the metric's bound, "regressed" when it is, and
// "unresolved" when either set's spread (interquartile distance over the
// median) exceeds the bound, so the medians cannot be told apart. It exits
// non-zero unless every row agrees.
func compareMode(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "octoledger: -compare takes two result files")
		return 2
	}
	// BENCHMARK.json sits at the repository root: the working directory
	// under bench.sh, two levels up under go run.
	benchPath := "BENCHMARK.json"
	if _, err := os.Stat(benchPath); err != nil {
		benchPath = "../../BENCHMARK.json"
	}
	var bench benchmarkFile
	var a, b resultsFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &bench}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(stderr, "octoledger: %v\n", err)
			return 1
		}
	}
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-15s %-19s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "worse", "bound", "verdict")
	status := 0
	for _, name := range names {
		wb, ok := b.Workloads[name]
		if !ok {
			fmt.Fprintf(stdout, "%-15s missing from %s\n", name, args[1])
			status = 1
			continue
		}
		for _, m := range bench.EndToEnd {
			sa, okA := a.Workloads[name].Summary[m.Name]
			sb, okB := wb.Summary[m.Name]
			if !okA || !okB || sa.Median == 0 {
				fmt.Fprintf(stdout, "%-15s %-19s missing\n", name, m.Name)
				status = 1
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case max(sa.IQRShare, sb.IQRShare) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict != "agree" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-15s %-19s %12.6g %7.3f %12.6g %7.3f %+8.3f %6.2f  %s\n",
				name, m.Name, sa.Median, sa.IQRShare, sb.Median, sb.IQRShare, worse, m.Bound, verdict)
		}
	}
	return status
}
