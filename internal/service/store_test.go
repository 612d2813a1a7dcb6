package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/faultinject"
	"octopocs/internal/service"
)

// openStores opens a per-class store bundle over dir for tests.
func openStores(t *testing.T, dir string, faults *faultinject.Injector) *service.Stores {
	t.Helper()
	st, err := service.OpenStores(service.StoreOptions{Dir: dir, Faults: faults})
	if err != nil {
		t.Fatalf("OpenStores: %v", err)
	}
	return st
}

func storeInjector(t *testing.T, schedule string) *faultinject.Injector {
	t.Helper()
	sch, err := faultinject.ParseSchedule(schedule)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", schedule, err)
	}
	return faultinject.New(sch)
}

// allSpecs is the full 17-pair corpus (Table II rows plus static-prune
// pairs).
func allSpecs() []*corpus.PairSpec {
	return append(corpus.All(), corpus.StaticSet()...)
}

// runCorpus verifies every corpus pair through svc and returns the reports
// keyed by row index.
func runCorpus(t *testing.T, svc *service.Service) map[int]*core.Report {
	t.Helper()
	return runSpecs(t, svc, allSpecs())
}

// runSpecs verifies the given corpus rows through svc and returns the
// reports keyed by row index.
func runSpecs(t *testing.T, svc *service.Service, specs []*corpus.PairSpec) map[int]*core.Report {
	t.Helper()
	jobs := make(map[int]*service.Job)
	for _, spec := range specs {
		job, err := svc.Submit(spec.Pair)
		if err != nil {
			t.Fatalf("submit idx %d: %v", spec.Idx, err)
		}
		jobs[spec.Idx] = job
	}
	reps := make(map[int]*core.Report)
	for idx, job := range jobs {
		rep, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("idx %d: %v", idx, err)
		}
		reps[idx] = rep
	}
	return reps
}

// TestWarmRestartRecomputesNothing is the tentpole acceptance scenario: a
// service backed by the persistent store verifies the whole corpus, shuts
// down, and a brand-new service over a brand-new store bundle (same
// directory — the "restarted node") re-verifies it. Every artifact of every
// class that ran must come from the store, and every report must be
// identical. The second configuration turns on every optional layer over
// rows 16-21, so the ps, ai and hy classes are restarted too.
func TestWarmRestartRecomputesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   core.Config
		specs []*corpus.PairSpec
	}{
		{"default", core.Config{}, allSpecs()},
		{"static+absint+hybrid", core.Config{StaticPrune: true, Absint: true, HybridFuzz: true},
			append(corpus.StaticSet(), corpus.HybridSet()...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			st1 := openStores(t, dir, nil)
			svc1 := service.New(service.Config{Workers: 4, Stores: st1, Pipeline: tc.cfg})
			cold := runSpecs(t, svc1, tc.specs)
			svc1.Shutdown(context.Background())
			st1.Close()

			st2 := openStores(t, dir, nil)
			defer st2.Close()
			svc2 := service.New(service.Config{Workers: 4, Stores: st2, Pipeline: tc.cfg})
			defer svc2.Shutdown(context.Background())
			warm := runSpecs(t, svc2, tc.specs)

			for _, spec := range tc.specs {
				c, w := cold[spec.Idx], warm[spec.Idx]
				// A static short-circuit ends the job before P2.
				p2Ran := w.Reason != core.ReasonStaticUnreachable
				if !w.Timings.P1Cached || (p2Ran && !w.Timings.P2Cached) {
					t.Errorf("idx %d: warm restart recomputed artifacts (p1=%v p2=%v)",
						spec.Idx, w.Timings.P1Cached, w.Timings.P2Cached)
				}
				if tc.cfg.StaticPrune && !w.Timings.StaticCached {
					t.Errorf("idx %d: warm restart recomputed the static analysis", spec.Idx)
				}
				if tc.cfg.Absint && !w.Timings.AbsintCached {
					t.Errorf("idx %d: warm restart recomputed the value ranges", spec.Idx)
				}
				if w.Hybrid != nil && !w.Timings.HybridCached {
					t.Errorf("idx %d: warm restart recomputed the hybrid campaign", spec.Idx)
				}
				cc, ww := *c, *w
				cc.Timings, ww.Timings = core.PhaseTimings{}, core.PhaseTimings{}
				if !reflect.DeepEqual(cc, ww) {
					t.Errorf("idx %d: warm report differs from cold\ncold %+v\nwarm %+v", spec.Idx, cc, ww)
				}
			}
			ctrs := st2.Counters()
			classes := []string{"p1", "p2"}
			if tc.cfg.HybridFuzz {
				classes = append(classes, "ai", "hy")
			}
			for _, class := range classes {
				if ctrs[class].DiskHits == 0 {
					t.Errorf("no %s disk hits recorded: %+v", class, ctrs[class])
				}
			}
		})
	}
}

// TestCrashConsistencyTornWrites kills every store write mid-payload (the
// torn-write fault models a crash after the rename was durable but before
// the data pages were), then reopens the directory: the integrity scan must
// drop every partial entry, and the full corpus must still verify with
// byte-identical reports — corruption can cost recomputation, never a
// different verdict.
func TestCrashConsistencyTornWrites(t *testing.T) {
	dir := t.TempDir()

	// Baseline reports from a memory-only service.
	ref := service.New(service.Config{Workers: 4})
	want := runCorpus(t, ref)
	ref.Shutdown(context.Background())

	// "Crashing" run: every disk persist is torn mid-write.
	st1 := openStores(t, dir, storeInjector(t, "artifact.torn_write"))
	svc1 := service.New(service.Config{Workers: 4, Stores: st1})
	runCorpus(t, svc1)
	svc1.Shutdown(context.Background())
	if c := st1.Counters(); c["p1"].Writes == 0 || c["p2"].Writes == 0 {
		t.Fatalf("torn run persisted nothing: %+v", c)
	}
	st1.Close()

	// Recovery: the scan must drop the partial entries...
	st2 := openStores(t, dir, nil)
	defer st2.Close()
	ctrs := st2.Counters()
	dropped := uint64(0)
	entries := 0
	for _, c := range ctrs {
		dropped += c.CorruptDropped
		entries += c.DiskEntries
	}
	if dropped == 0 {
		t.Fatalf("integrity scan dropped nothing: %+v", ctrs)
	}
	if entries != 0 {
		t.Fatalf("torn entries survived the scan: %+v", ctrs)
	}
	// ...and verification over the recovered store stays byte-identical.
	svc2 := service.New(service.Config{Workers: 4, Stores: st2})
	defer svc2.Shutdown(context.Background())
	got := runCorpus(t, svc2)
	for _, spec := range allSpecs() {
		w, g := *want[spec.Idx], *got[spec.Idx]
		w.Timings, g.Timings = core.PhaseTimings{}, core.PhaseTimings{}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("idx %d: report changed after torn-write recovery\nwant %+v\n got %+v",
				spec.Idx, w, g)
		}
	}
}

// TestWarmRestartAcrossProcesses is the CI cross-process hook: with
// OCTOPOCS_STORE_DIR set, the first invocation populates the store and
// later invocations (new processes) must be served entirely from it. The
// pre-population check keys off the store's own disk counters, so the same
// test body plays both roles.
func TestWarmRestartAcrossProcesses(t *testing.T) {
	dir := os.Getenv("OCTOPOCS_STORE_DIR")
	if dir == "" {
		t.Skip("OCTOPOCS_STORE_DIR not set")
	}
	st := openStores(t, dir, nil)
	defer st.Close()
	populated := st.Counters()["p1"].DiskEntries > 0
	svc := service.New(service.Config{Workers: 4, Stores: st})
	defer svc.Shutdown(context.Background())
	reps := runCorpus(t, svc)
	if !populated {
		t.Logf("store at %s populated cold; rerun to assert warm reuse", dir)
		return
	}
	for _, spec := range allSpecs() {
		w := reps[spec.Idx]
		if !w.Timings.P1Cached || !w.Timings.P2Cached {
			t.Errorf("idx %d: prior process's artifacts not reused (p1=%v p2=%v)",
				spec.Idx, w.Timings.P1Cached, w.Timings.P2Cached)
		}
	}
}

// TestBatchSubmitDedup covers POST-/v1/batches semantics at the Go API
// level: duplicate pairs share one job, all items resolve, and the batch
// reaches the done state.
func TestBatchSubmitDedup(t *testing.T) {
	svc := service.New(service.Config{Workers: 4})
	defer svc.Shutdown(context.Background())

	s1, s2 := corpus.ByIdx(1), corpus.ByIdx(2)
	b, err := svc.SubmitBatch("dedup", []*core.Pair{s1.Pair, s2.Pair, s1.Pair})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	st := b.Snapshot()
	if st.Total != 3 || st.Unique != 2 {
		t.Fatalf("batch = %+v, want total 3 unique 2", st)
	}
	if st.Items[0].JobID != st.Items[2].JobID || st.Items[0].JobID == st.Items[1].JobID {
		t.Fatalf("dedup mapping wrong: %+v", st.Items)
	}
	if st.Items[0].Deduped || st.Items[1].Deduped || !st.Items[2].Deduped {
		t.Fatalf("dedup flags wrong: %+v", st.Items)
	}
	for _, item := range st.Items {
		j, ok := svc.Job(item.JobID)
		if !ok {
			t.Fatalf("batch references unknown job %s", item.JobID)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", item.JobID, err)
		}
	}
	if st = b.Snapshot(); st.State != "done" || st.Done != 2 {
		t.Fatalf("finished batch = %+v", st)
	}
}

// TestBatchAtomicRejection proves all-or-nothing admission: a batch whose
// unique jobs exceed the queue's free capacity is rejected whole, enqueuing
// nothing.
func TestBatchAtomicRejection(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 2})
	defer svc.Shutdown(context.Background())

	pairs := []*core.Pair{corpus.ByIdx(1).Pair, corpus.ByIdx(2).Pair, corpus.ByIdx(3).Pair}
	if _, err := svc.SubmitBatch("too-big", pairs); err == nil {
		t.Fatal("oversized batch admitted")
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected batch leaked %d jobs", len(jobs))
	}
	st := svc.Stats()
	if st.Rejected != 3 {
		t.Errorf("rejected counter = %d, want 3", st.Rejected)
	}
	// The queue is untouched, so a fitting batch goes through afterwards.
	b, err := svc.SubmitBatch("fits", pairs[:2])
	if err != nil {
		t.Fatalf("fitting batch rejected: %v", err)
	}
	for _, j := range b.Snapshot().Items {
		job, _ := svc.Job(j.JobID)
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", j.JobID, err)
		}
	}
}

// TestBatchHTTPBackpressure drives the 429 + Retry-After contract over the
// wire: an unsatisfiable batch answers 429 with a positive Retry-After, and
// the error names the capacity shortfall.
func TestBatchHTTPBackpressure(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 1})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req := service.BatchRequest{Jobs: []service.SubmitRequest{
		{CorpusIdx: 1}, {CorpusIdx: 2},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batches", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}

	// A fitting batch is accepted and reports its mapping.
	resp, body = postJSON(t, ts.URL+"/v1/batches",
		service.BatchRequest{Name: "ok", Jobs: []service.SubmitRequest{{CorpusIdx: 1}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
}

// TestSaturationBackpressure drives admission control off the disk-full
// fault: once a store write fails, submissions reject with ErrSaturated and
// the HTTP layer answers 429 with the saturation hold as Retry-After.
func TestSaturationBackpressure(t *testing.T) {
	st := openStores(t, t.TempDir(), storeInjector(t, "artifact.disk_full"))
	defer st.Close()
	svc := service.New(service.Config{Workers: 2, Stores: st})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// The first job's artifact writes trip the fault; the job itself still
	// completes (the hot tier absorbs the loss).
	job, err := svc.Submit(corpus.ByIdx(1).Pair)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("job under disk-full failed: %v", err)
	}
	if !st.Saturated() {
		t.Fatal("stores not saturated after failed writes")
	}
	if _, err := svc.Submit(corpus.ByIdx(2).Pair); err == nil {
		t.Fatal("saturated service accepted a submission")
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", service.SubmitRequest{CorpusIdx: 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}
	stats := svc.Stats()
	if !stats.StoreSaturated {
		t.Error("stats do not report saturation")
	}
	if stats.Stores["p1"].WriteErrors == 0 {
		t.Errorf("p1 store recorded no write errors: %+v", stats.Stores["p1"])
	}
}

// TestScanFingerprintStoreReuse proves the clone-detection fingerprints
// flow through the persistent store: a second scan over the same targets in
// a fresh process is served from disk.
func TestScanFingerprintStoreReuse(t *testing.T) {
	dir := t.TempDir()
	st1 := openStores(t, dir, nil)
	svc1 := service.New(service.Config{Workers: 2, Stores: st1})
	req := &service.ScanRequest{CorpusIdx: 1, CorpusTargets: true, RetrieveOnly: true}
	if _, err := svc1.StartScan(req); err != nil {
		t.Fatalf("cold scan: %v", err)
	}
	if c := st1.Counters()["ci"]; c.Writes == 0 {
		t.Fatalf("cold scan persisted no fingerprints: %+v", c)
	}
	svc1.Shutdown(context.Background())
	st1.Close()

	st2 := openStores(t, dir, nil)
	defer st2.Close()
	svc2 := service.New(service.Config{Workers: 2, Stores: st2})
	defer svc2.Shutdown(context.Background())
	sc1, err := svc2.StartScan(req)
	if err != nil {
		t.Fatalf("warm scan: %v", err)
	}
	if c := st2.Counters()["ci"]; c.DiskHits == 0 {
		t.Errorf("warm scan not served from the fingerprint store: %+v", c)
	}
	// Same request against the in-memory reference: candidates must agree.
	ref := service.New(service.Config{Workers: 2})
	defer ref.Shutdown(context.Background())
	sc2, err := ref.StartScan(req)
	if err != nil {
		t.Fatalf("reference scan: %v", err)
	}
	if got, want := sc1.Snapshot().Candidates, sc2.Snapshot().Candidates; !reflect.DeepEqual(got, want) {
		t.Errorf("store-served scan diverged\n got %+v\nwant %+v", got, want)
	}
}
