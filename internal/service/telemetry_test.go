package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/service"
	"octopocs/internal/telemetry"
)

// runOne submits one corpus pair and waits for its report.
func runOne(t *testing.T, svc *service.Service, idx int) (*service.Job, *core.Report) {
	t.Helper()
	job, err := svc.Submit(corpus.ByIdx(idx).Pair)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	return job, rep
}

// TestMetricsEndpoint drives one verification through the service and
// checks the Prometheus exposition: job lifecycle counters, the per-phase
// latency histogram, the verdict family, and the engine counters flushed
// by the symbolic executor and the VM.
func TestMetricsEndpoint(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Shutdown(context.Background())
	_, rep := runOne(t, svc, 1)

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content-type %q is not Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		"octopocs_jobs_submitted_total 1",
		"octopocs_jobs_completed_total 1",
		`octopocs_phase_seconds_bucket{phase="p1",le="+Inf"} 1`,
		`octopocs_phase_seconds_count{phase="p1"} 1`,
		`octopocs_verdicts_total{verdict="` + rep.Verdict.String() + `"} 1`,
		"octopocs_queue_wait_seconds_count 1",
		"octopocs_symex_states_total",
		"octopocs_symex_loop_dead_total",
		"octopocs_symex_theta_exhausted_total",
		"octopocs_vm_runs_total",
		"octopocs_solver_solves_total",
		"octopocs_workers 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The pipeline must actually have exercised the engines.
	for _, counter := range []string{
		"octopocs_vm_runs_total 0",
		"octopocs_symex_runs_total 0",
		"octopocs_solver_solves_total 0",
	} {
		if strings.Contains(text, counter+"\n") || strings.HasSuffix(text, counter) {
			t.Errorf("engine counter unexpectedly zero: %q", counter)
		}
	}
}

// TestTraceEndpoint checks that a finished job serves its span tree: a
// verify root carrying the pair attribute, with the four phase spans as
// children.
func TestTraceEndpoint(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	job, _ := runOne(t, svc, 1)

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var snap telemetry.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != job.ID() || !snap.Finished {
		t.Fatalf("trace snapshot = {ID:%q Finished:%v}, want finished %q", snap.ID, snap.Finished, job.ID())
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "verify" {
		t.Fatalf("want a single verify root span, got %+v", snap.Spans)
	}
	root := snap.Spans[0]
	if root.Attrs["pair"] != corpus.ByIdx(1).Pair.Name {
		t.Errorf("root pair attr = %v", root.Attrs["pair"])
	}
	got := map[string]bool{}
	for _, child := range root.Children {
		got[child.Name] = true
	}
	for _, phase := range []string{"p1", "p2_prep", "reform", "p4"} {
		if !got[phase] {
			t.Errorf("trace is missing phase span %q (children: %v)", phase, root.Children)
		}
	}

	// Unknown jobs 404 on the trace route like everywhere else.
	resp2, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status %d, want 404", resp2.StatusCode)
	}
}

// TestTraceDisabled checks that TraceCapacity < 0 turns the recorder off:
// the job runs normally and the trace route reports 404.
func TestTraceDisabled(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, TraceCapacity: -1})
	defer svc.Shutdown(context.Background())
	job, _ := runOne(t, svc, 1)

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace status %d with tracing disabled, want 404", resp.StatusCode)
	}
}

// TestHealthzDraining checks the liveness flip: 200 while accepting, 503
// once Shutdown has begun.
func TestHealthzDraining(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d before shutdown, want 200", resp.StatusCode)
	}

	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d after shutdown, want 503 (%s)", resp.StatusCode, body)
	}
}

// TestStatsConcurrent hammers Stats and the metrics exposition while jobs
// run, for the race detector: every Stats read (queue occupancy, counters,
// cache accounting, histogram quantiles) must be synchronized with the
// workers mutating the same state.
func TestStatsConcurrent(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Shutdown(context.Background())

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := svc.Stats()
				if st.QueueCap == 0 {
					t.Error("queue cap 0")
					return
				}
				var sb strings.Builder
				if err := svc.Registry().WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		runOne(t, svc, 1)
	}
	close(done)
	wg.Wait()

	st := svc.Stats()
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Completed)
	}
	p1 := st.PhaseLatency["p1"]
	if p1.Count != 3 {
		t.Fatalf("p1 count = %d, want 3", p1.Count)
	}
	if p1.P50MS < 0 || p1.P50MS > p1.P99MS {
		t.Fatalf("quantile ordering violated: p50=%v p99=%v", p1.P50MS, p1.P99MS)
	}
}

// TestSatCacheHitsAcrossJobs: submitting the same pair twice must answer
// part of the second job's feasibility checks from the pipeline's shared
// satisfiability cache, and the reuse must be visible in /metrics.
func TestSatCacheHitsAcrossJobs(t *testing.T) {
	// Disable the phase-artifact caches so the second job genuinely
	// re-runs reform (otherwise the cached report would skip the solver
	// entirely and prove nothing about sat memoization).
	svc := service.New(service.Config{Workers: 1, CacheEntries: -1})
	defer svc.Shutdown(context.Background())
	runOne(t, svc, 1)
	runOne(t, svc, 1)

	stats := svc.Pipeline().SatCache().Stats()
	if stats.Hits == 0 {
		t.Fatalf("no sat-cache hits after identical resubmission: %+v", stats)
	}

	text := scrapeMetrics(t, svc)
	if !strings.Contains(text, "octopocs_solver_sat_cache_hits_total") {
		t.Error("exposition missing octopocs_solver_sat_cache_hits_total")
	}
	if strings.Contains(text, "octopocs_solver_sat_cache_hits_total 0\n") {
		t.Error("sat-cache hit counter is zero in /metrics")
	}
}

// scrapeMetrics returns the service's /metrics exposition.
func scrapeMetrics(t *testing.T, svc *service.Service) string {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestVerdictMetricCountsFuzzing: every verdict has an
// octopocs_verdicts_total series, and a hybrid rescue counts under its own
// verdict. Row 19 ends triggered-by-fuzzing with every optional layer on.
func TestVerdictMetricCountsFuzzing(t *testing.T) {
	svc := service.New(service.Config{Workers: 1,
		Pipeline: core.Config{StaticPrune: true, Absint: true, HybridFuzz: true}})
	defer svc.Shutdown(context.Background())
	if _, rep := runOne(t, svc, 19); rep.Verdict != core.VerdictTriggeredByFuzzing {
		t.Fatalf("row 19 verdict %v, want %v", rep.Verdict, core.VerdictTriggeredByFuzzing)
	}
	text := scrapeMetrics(t, svc)
	for _, v := range core.Verdicts {
		want := 0
		if v == core.VerdictTriggeredByFuzzing {
			want = 1
		}
		if line := fmt.Sprintf(`octopocs_verdicts_total{verdict="%s"} %d`, v, want); !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
}
