// Command octoledger is the repository's benchmark: verdict latency and
// throughput of the OCTOPOCS pipeline from cold CLI runs to warm service
// fan-out, with per-layer attribution from a separate traced run.
//
// One workload in this process, result as the last line of output:
//
//	octoledger --workload corpus-cold --seed 1 --seconds 20 --trace 0
//
// Every workload, each in a child process of its own, K runs each:
//
//	octoledger -seed 1 [-runs K] [-out results.json] [-trace 1] [-short]
//
// Two result sets checked against the bounds in BENCHMARK.json:
//
//	octoledger -compare a.json b.json
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// maxProcs is the parallelism every workload is sized for: two cores. It is
// fixed rather than taken from the host so that numbers from hosts with
// more cores stay comparable.
const maxProcs = 2

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("octoledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in-process and print its result as a JSON last line")
	seed := fs.Int64("seed", 1, "seed of the job order and mix")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	spansOut := fs.String("spans", "", "traced run: write every span with its self time to this file (a directory for a multi-workload invocation)")
	short := fs.Bool("short", false, "one pass per workload, one set-up, 1 s load windows")
	runs := fs.Int("runs", 1, "runs per workload for a multi-workload invocation")
	outPath := fs.String("out", "", "write every run's result with per-metric median and IQR to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
	job := fs.Int("job", 0, "run only this job, numbered from 1 in the workload's job list, and print its raw samples (the child side of a process-per-job workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "octoledger: -trace takes 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, short: *short, job: *job}
	switch {
	case *compare:
		return compareMode(fs.Args(), stdout, stderr)
	case *name != "":
		return single(*name, o, *spansOut, stdout, stderr)
	default:
		return multi(o, *runs, *spansOut, *outPath, stdout, stderr)
	}
}

// single runs one workload in this process.
func single(name string, o options, spansOut string, stdout, stderr io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "octoledger: unknown workload %q\n", name)
		return 2
	}
	if o.job > 0 {
		out, err := w.run(&o)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(out.samples)
		}
		if err != nil {
			fmt.Fprintf(stderr, "octoledger: %s job %d: %v\n", name, o.job, err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(w, o, spansOut, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "octoledger: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintln(stdout, hostLine())
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printMetrics(stdout, name, defs, res.Metrics)
	if o.trace {
		printLayerShares(stdout, name, res.Metrics)
	}
	fmt.Fprintf(stdout, "%s error_share %g ratio (%d of %d)\n", name, errorShare(res), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "octoledger: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w and turns its measurements into the result object:
// end-to-end metrics untraced, per-layer metrics traced.
func runWorkload(w workload, o options, spansOut string, stderr io.Writer) (*result, error) {
	var out *outcome
	var err error
	switch {
	case o.trace:
		o.rec = newRecorder()
		out, err = w.run(&o)
	case w.jobs != nil:
		out, err = runJobPerProcess(w, o, stderr)
	default:
		out, err = w.run(&o)
	}
	if err != nil {
		return nil, err
	}
	for _, f := range out.Failures {
		fmt.Fprintf(stderr, "octoledger: %s: %s\n", w.name, f)
	}
	res := &result{Correct: out.Failed == 0 && out.Attempted > 0, Attempted: out.Attempted, Failed: out.Failed}
	if !o.trace {
		res.Metrics = withUnits(endToEnd, out.endToEndMetrics())
		return res, nil
	}
	spans := o.rec.computeSelf()
	layers := out.perLayerMetrics(spans)
	tmp, err := os.MkdirTemp("", "octoledger-probe-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if err := runProbes(layers, tmp); err != nil {
		return nil, err
	}
	res.Metrics = withUnits(perLayer, layers)
	if spansOut != "" {
		if err := writeSpans(spansOut, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func errorShare(r *result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// multi runs every workload runs times, each run in a child process of its
// own so heap, GC state and peak RSS belong to one workload.
func multi(o options, runs int, spansDir, outPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "octoledger: %v\n", err)
		return 1
	}
	file := resultsFile{Host: currentHost(), Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, Workloads: map[string]*workloadRuns{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintln(stdout, hostLine())
	status := 0
	trace := "0"
	if o.trace {
		trace = "1"
	}
	for _, w := range workloads {
		wr := &workloadRuns{}
		for r := 1; r <= max(runs, 1); r++ {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds.Seconds(), 'f', -1, 64), "--trace", trace}
			if o.short {
				args = append(args, "--short")
			}
			if spansDir != "" {
				args = append(args, "--spans", filepath.Join(spansDir, fmt.Sprintf("%s-%d.json", w.name, r)))
			}
			res, err := child(exe, args, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "octoledger: %s run %d: %v\n", w.name, r, err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			wr.Runs = append(wr.Runs, *res)
		}
		wr.summarize(defs)
		file.Workloads[w.name] = wr
		for _, d := range defs {
			s, ok := wr.Summary[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "%s %s %.6g %s", w.name, d.name, s.Median, s.Unit)
			if len(s.Values) > 1 {
				fmt.Fprintf(stdout, " iqr=%.3f runs=%d", s.IQRShare, len(s.Values))
			}
			fmt.Fprintln(stdout)
		}
		var failed, attempted int
		for _, r := range wr.Runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		fmt.Fprintf(stdout, "%s error_share %g ratio (%d of %d)\n", w.name,
			errorShare(&result{Failed: failed, Attempted: attempted}), failed, attempted)
	}
	if outPath != "" {
		if err := writeJSON(outPath, file); err != nil {
			fmt.Fprintf(stderr, "octoledger: %v\n", err)
			return 1
		}
	}
	return status
}

// asMainEnv makes a test binary run main instead of its tests, so the
// smoke test's child processes are the command itself (see TestMain).
const asMainEnv = "OCTOLEDGER_AS_MAIN"

// childLine runs this command again with args and returns the last line it
// printed. A non-zero exit is an error only when no line came out: a run
// with wrong verdicts still reports them.
func childLine(exe string, args []string, stderr io.Writer) ([]byte, error) {
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		if runErr == nil {
			runErr = errors.New("no output")
		}
		return nil, runErr
	}
	return last, nil
}

// child runs one single-workload invocation and parses its result line.
func child(exe string, args []string, stderr io.Writer) (*result, error) {
	line, err := childLine(exe, args, stderr)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// runJobPerProcess runs the workload's jobs in seeded passes, each job in a
// child process of its own, and pools their samples. It runs at least one
// whole pass and stops after the job that spends the measured window.
//
// Throughput is taken from one pass built from each job's fastest time in
// the run, so every job counts once however often it ran. Contention from
// other tenants of a shared host only ever slows a job down, for seconds at
// a time, and how many of a run's seconds it slows varies from run to run.
// On the same samples of ten corpus-cold runs, the sum of fastest times
// spread 0.075 (interquartile distance over median) where the sum of
// medians spread 0.153.
func runJobPerProcess(w workload, o options, stderr io.Writer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n := w.jobs()
	order := newPassOrder(o.seed, w.name)
	out := newOutcome()
	start := time.Now()
	for pass := 0; ; pass++ {
		for k, i := range order.next(n) {
			line, err := childLine(exe, []string{"--workload", w.name, "--job", strconv.Itoa(i + 1)}, stderr)
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", i+1, err)
			}
			var s samples
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("job %d: %w", i+1, err)
			}
			out.merge(s)
			if (pass > 0 || k == n-1) && (o.short || time.Since(start) >= o.seconds) {
				var wall time.Duration
				for _, ds := range out.Jobs {
					wall += slices.Min(ds)
				}
				out.Passes = []time.Duration{wall}
				out.PerPass = n
				return out, nil
			}
		}
	}
}

// host stamps a result set with where it was measured.
type host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func currentHost() host {
	return host{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
}

// hostLine stamps printed results with the host.
func hostLine() string {
	h := currentHost()
	return fmt.Sprintf("host gomaxprocs=%d numcpu=%d go=%s os=%s", h.GoMaxProcs, h.NumCPU, h.GoVersion, h.OS)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
