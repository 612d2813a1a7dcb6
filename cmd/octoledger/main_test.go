package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the command re-run itself from the test binary: its child
// processes carry asMainEnv and run main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
	}
	os.Exit(m.Run())
}

// benchmarkDefs reads the metric names and units BENCHMARK.json fixes.
func benchmarkDefs(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// printed parses the "<workload> <metric> <value> <unit>" lines of a run
// into metric -> unit, and returns the final JSON result line.
func printed(t *testing.T, out string) (map[string]string, result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 4 {
			units[f[1]] = f[3]
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return units, res
}

func TestShortRunsPrintEveryEndToEndMetric(t *testing.T) {
	want, _, names := benchmarkDefs(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(have, names) {
		t.Fatalf("workloads %v, BENCHMARK.json names %v", have, names)
	}
	// The runs only check what is printed, so they may share the cores.
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			code := single(name, options{seed: 1, seconds: time.Second, short: true}, "", &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			units, res := printed(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("error share %d of %d\n%s", res.Failed, res.Attempted, stderr.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				if units[metric] != unit || res.Metrics[metric].Unit != unit {
					t.Errorf("%s: printed unit %q, result unit %q, want %q", metric, units[metric], res.Metrics[metric].Unit, unit)
				}
				if v := res.Metrics[metric].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", metric, v)
				}
			}
		})
	}
}

// TestWrongVerdictFailsTracedRun runs the cheapest workload traced against
// a table with one deliberately wrong verdict: the run must fail, and it
// must still print every per-layer metric with its unit.
func TestWrongVerdictFailsTracedRun(t *testing.T) {
	t.Parallel()
	_, want, _ := benchmarkDefs(t)
	rows, truth, err := fanoutInputs()
	if err != nil {
		t.Fatal(err)
	}
	wrong := truthTable{}
	for idx, e := range truth {
		wrong[idx] = e
	}
	wrong[rows[9].idx] = expectation{verdict: "triggered", typ: "Type-I", poc: true}

	var stdout, stderr bytes.Buffer
	code := single("service-fanout", options{seed: 1, seconds: time.Second, short: true, trace: true, truth: wrong}, "", &stdout, &stderr)
	units, res := printed(t, stdout.String())
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("wrong expected verdict: exit %d, correct=%v, failed=%d; want a failed run", code, res.Correct, res.Failed)
	}
	if !strings.Contains(stderr.String(), fmt.Sprintf("row %d: verdict", rows[9].idx)) {
		t.Errorf("mismatch not reported:\n%s", stderr.String())
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for metric, unit := range want {
		if units[metric] != unit || res.Metrics[metric].Unit != unit {
			t.Errorf("%s: printed unit %q, result unit %q, want %q", metric, units[metric], res.Metrics[metric].Unit, unit)
		}
	}
}

// jobSequence renders the first passes of a workload's seeded job order,
// and for service-fanout its open-loop arrivals too.
func jobSequence(workload string, seed int64) string {
	order := newPassOrder(seed, workload)
	var b strings.Builder
	if workload == "service-fanout" {
		for _, a := range poissonArrivals(order.rng, time.Second) {
			fmt.Fprintf(&b, "%d@%d ", a.row, a.at)
		}
	}
	for pass := 0; pass < 3; pass++ {
		fmt.Fprint(&b, order.next(21), " ")
	}
	return b.String()
}

func TestSeedDeterminesJobSequence(t *testing.T) {
	for _, w := range workloads {
		if jobSequence(w.name, 1) != jobSequence(w.name, 1) {
			t.Errorf("%s: seed 1 gave two different job sequences", w.name)
		}
		if jobSequence(w.name, 1) == jobSequence(w.name, 2) {
			t.Errorf("%s: seeds 1 and 2 gave the same job sequence", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
