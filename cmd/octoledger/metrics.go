package main

import (
	"fmt"
	"io"
	"sort"
	"syscall"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, the ones a user of the
// system sees; BENCHMARK.json fixes their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
}

// perLayer lists the metrics of a traced run. Times and counts are per job
// (per exploration on symex-frontier) unless the name says otherwise; a
// layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.p1_ms", "ms"}, {"core.p2_prep_ms", "ms"}, {"core.reform_ms", "ms"}, {"core.p4_ms", "ms"}, {"core.hybrid_ms", "ms"},
		{"core.cache_hit_ms", "ms"},
		{"symex.discover_ms", "ms"}, {"symex.directed_ms", "ms"}, {"symex.states", "count"}, {"symex.steps", "count"},
		{"symex.sat_checks", "count"}, {"symex.states_per_s", "1/s"}, {"symex.steals", "count"}, {"symex.frontier_peak", "count"},
		{"solver.solve_ms", "ms"}, {"solver.placement_ms", "ms"}, {"solver.solves", "count"}, {"solver.unsat", "count"},
		{"solver.budget_exhausted", "count"}, {"solver.sat_cache_hit_ratio", "ratio"}, {"solver.sat_cache_lookups", "count"},
		{"solver.solve_us", "us"}, {"solver.solve_allocs", "count"},
		{"cfg.build_ms", "ms"}, {"cfg.distance_ms", "ms"},
		{"vm.ms", "ms"}, {"vm.runs", "count"}, {"vm.instructions", "count"}, {"vm.instructions_per_s", "1/s"},
		{"vm.run_us", "us"}, {"vm.run_allocs", "count"},
		{"taint.ms", "ms"}, {"taint.run_us", "us"},
		{"hybrid.campaign_ms", "ms"}, {"hybrid.execs", "count"}, {"hybrid.execs_per_s", "1/s"}, {"fuzz.execs_per_s", "1/s"},
		{"go.alloc_mb", "MB"}, {"go.alloc_bytes_per_exec", "B"}, {"go.gc_cycles", "count"},
		{"mirstatic.ms", "ms"}, {"absint.ms", "ms"}, {"absint.proved_branches", "count"},
		{"service.http_ms", "ms"}, {"service.overhead_ms", "ms"}, {"service.job_ms_p50", "ms"}, {"service.job_ms_p99", "ms"},
		{"service.p1_hit_ratio", "ratio"}, {"service.p2_hit_ratio", "ratio"},
		{"service.stats_p1_avg_ms", "ms"}, {"service.stats_p2_prep_avg_ms", "ms"},
		{"service.stats_reform_avg_ms", "ms"}, {"service.stats_p4_avg_ms", "ms"},
		{"asm.parse_us", "us"},
		{"artifact.hot_hits", "count"}, {"artifact.disk_hits", "count"}, {"artifact.writes", "count"},
		{"artifact.open_ms", "ms"}, {"artifact.put_us", "us"}, {"artifact.get_disk_us", "us"},
		{"journal.events_per_job", "count"}, {"gen.late_p99_ms", "ms"},
		{"trace.overhead_share", "ratio"}, {"trace.coverage_min", "ratio"},
		{"run.wall_s", "s"}, {"run.verdict_geomean_ms", "ms"}, {"run.latency_p50_ms", "ms"}, {"run.latency_p99_ms", "ms"}, {"run.peak_rss_mb", "MB"},
	}
	for i := 1; i <= 21; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("pair.%02d.ms", i), "ms"})
	}
	return defs
}()

// endToEndMetrics computes the untraced run's metrics. Throughput is one
// pass's jobs over the median pass wall time, so one pass stalled by the
// host does not move it; a process-per-job run reports a single pass built
// from each job's fastest time (see runJobPerProcess).
func (out *outcome) endToEndMetrics() map[string]float64 {
	m := map[string]float64{"setup_s": median(secondsAll(out.Setup))}
	if wall := median(secondsAll(out.Passes)); wall > 0 {
		m["jobs_per_s"] = float64(out.PerPass) / wall
	}
	return m
}

// verdictGeomean is the geometric mean over job kinds of each kind's
// median time to verdict, so cheap jobs count as much as dear ones.
func (out *outcome) verdictGeomean() float64 {
	var perKind []float64
	for _, ds := range out.Jobs {
		perKind = append(perKind, median(msAll(ds)))
	}
	return geomean(perKind)
}

// perLayerMetrics folds the traced run's spans into per-job layer self
// times and adds the ratios derived from them.
func (out *outcome) perLayerMetrics(spans []span) map[string]float64 {
	m := out.layers
	totals, coverage := layerTotals(spans)
	calls := 0
	for _, s := range spans {
		if callSpans[s.Name] {
			calls++
		}
	}
	for layer, total := range totals {
		m[layer] = total / float64(max(calls, 1))
	}
	if t := m["symex.discover_ms"] + m["symex.directed_ms"]; t > 0 {
		m["symex.states_per_s"] = m["symex.states"] / (t / 1000)
	}
	if t := m["vm.ms"] + m["taint.ms"]; t > 0 {
		m["vm.instructions_per_s"] = m["vm.instructions"] / (t / 1000)
	}
	m["go.alloc_mb"] = median(out.allocMB)
	m["go.gc_cycles"] = median(out.gcCycles)
	m["run.wall_s"] = median(secondsAll(out.Passes))
	m["run.verdict_geomean_ms"] = out.verdictGeomean()
	m["run.latency_p50_ms"] = quantile(msAll(out.latency), 0.50)
	m["run.latency_p99_ms"] = quantile(msAll(out.latency), 0.99)
	m["run.peak_rss_mb"] = peakRSSMB()
	if base := m["run.wall_s"]; base > 0 {
		m["trace.overhead_share"] = median(secondsAll(out.tracedPasses))/base - 1
	}
	if len(coverage) > 0 {
		lo := coverage[0]
		for _, c := range coverage {
			lo = min(lo, c)
		}
		m["trace.coverage_min"] = lo
	}
	return m
}

// peakRSSMB is the process's peak resident set size. Each workload runs in
// a process of its own, so this is the workload's peak. It is a traced-run
// metric because it is too unsteady to bound: across ten runs its spread
// was 0.61 on hybrid-rescue, where GC overshoot under the campaign's
// allocation rate sets it, and 0.24 on symex-frontier, a 15 MB process.
// Taken per job in fresh processes it was no steadier: one hybrid job read
// 22.6 and then 45.8 MB, and most other jobs read the runtime's own 14 MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// withUnits keeps the listed metrics with their units, filling absent ones
// with 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// printMetrics writes one "<workload> <metric> <value> <unit>" line per
// metric, in definition order.
func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]metric) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", workload, d.name, v.Value, v.Unit)
		}
	}
}

// printLayerShares writes each layer's share of the self time of a traced
// run's jobs, largest first: where a verdict's time goes.
func printLayerShares(w io.Writer, workload string, vals map[string]metric) {
	layers := map[string]bool{}
	for _, l := range layerOf {
		layers[l] = true
	}
	var names []string
	var total float64
	for l := range layers {
		if v := vals[l].Value; v > 0 {
			names = append(names, l)
			total += v
		}
	}
	sort.Slice(names, func(i, j int) bool { return vals[names[i]].Value > vals[names[j]].Value })
	for _, l := range names {
		fmt.Fprintf(w, "%s share %s=%.3f\n", workload, l, vals[l].Value/total)
	}
}
