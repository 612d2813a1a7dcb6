// Command octobench regenerates the paper's evaluation artifacts: Tables
// II through V, the § V-B latest-version findings, the parameter sweeps
// and the § II-A PoC-type survey. Benchmarks live in cmd/octoledger.
//
// Usage:
//
//	octobench -all
//	octobench -table 2
//	octobench -table 5 -execs 500000
//	octobench -survey
package main

import (
	"flag"
	"fmt"
	"os"

	"octopocs/internal/eval"
	"octopocs/internal/survey"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "octobench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("octobench", flag.ContinueOnError)
	var (
		all       = fs.Bool("all", false, "regenerate every table and the survey")
		table     = fs.Int("table", 0, "regenerate one table (2-5)")
		doSurvey  = fs.Bool("survey", false, "run the § II-A PoC-type survey")
		doLatest  = fs.Bool("latest", false, "run the § V-B latest-version verifications")
		doSweeps  = fs.Bool("sweeps", false, "run the θ and naive-SE-memory parameter sweeps")
		execs     = fs.Int64("execs", 300_000, "fuzzing execution budget for Table V")
		memBudget = fs.Int64("mem", 0, "naive-SE memory budget in bytes for Table IV (0 = default)")
		workers   = fs.Int("workers", 0, "verify Table II pairs with a worker pool of this size (0 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && *table == 0 && !*doSurvey && !*doLatest && !*doSweeps {
		fs.Usage()
		return fmt.Errorf("pass -all, -table N, -latest, -sweeps, or -survey")
	}

	want := func(n int) bool { return *all || *table == n }

	if want(2) {
		var rows []eval.TableIIRow
		var err error
		if *workers > 0 {
			rows, err = eval.TableIIParallel(*workers)
		} else {
			rows, err = eval.TableII()
		}
		// The parallel run returns the rows that verified even when some
		// pairs failed; print them before surfacing the aggregate error.
		if len(rows) > 0 {
			fmt.Println(eval.FormatTableII(rows))
		}
		if err != nil {
			return err
		}
	}
	if want(3) {
		rows, err := eval.TableIII()
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatTableIII(rows))
	}
	if want(4) {
		rows, err := eval.TableIV(*memBudget)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatTableIV(rows))
	}
	if want(5) {
		rows, err := eval.TableV(*execs)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatTableV(rows))
	}
	if *all || *doLatest {
		rows, err := eval.Latest()
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatLatest(rows))
	}
	if *all || *doSweeps {
		thetaPts, err := eval.SweepTheta(nil)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatThetaSweep(thetaPts))
		memPts, err := eval.SweepNaiveMem(nil)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatMemSweep(memPts))
	}
	if *all || *doSurvey {
		counts := survey.Run(survey.Generate(1))
		fmt.Println("PoC-type survey (§ II-A analog)")
		fmt.Printf("Bugzilla-referenced CVEs: %d (paper: %d)\n", counts.Total, survey.PaperTotal)
		fmt.Printf("Reported with a PoC:      %d (paper: %d)\n", counts.WithPoC, survey.PaperWithPoC)
		for _, t := range []survey.PoCType{survey.MalformedFile, survey.ShellCommand, survey.Program, survey.MalformedString} {
			fmt.Printf("  %-18s %d\n", t.String()+":", counts.ByType[t])
		}
		fmt.Printf("Malformed-file share:     %.1f%% (paper: 70%%)\n", counts.FilePercent)
	}
	return nil
}
