package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"octopocs/internal/corpus"
	"octopocs/internal/journal"
	"octopocs/internal/service"
)

// TestJobJournalLifecycle follows one job's provenance journal through the
// service: live accounting while the recorder is attached, persistence as a
// content-addressed artifact on finish, and identical rendering from the
// JournalEvents accessor before and after.
func TestJobJournalLifecycle(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(corpus.ByIdx(1).Pair)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	events, ok := svc.JournalEvents(job.ID(), 0)
	if !ok || len(events) == 0 {
		t.Fatalf("no journal after finish (ok=%v, %d events)", ok, len(events))
	}
	if events[len(events)-1].Type != journal.EvVerdict {
		t.Fatalf("journal ends in %s, want %s", events[len(events)-1].Type, journal.EvVerdict)
	}
	st := job.Snapshot()
	if st.JournalEvents != len(events) {
		t.Errorf("snapshot counts %d events, accessor returns %d", st.JournalEvents, len(events))
	}
	if !strings.HasPrefix(st.JournalKey, "jr:") {
		t.Errorf("journal key %q is not content-addressed", st.JournalKey)
	}
	if cc := svc.Stats().JournalCache; cc == nil || cc.Entries == 0 {
		t.Errorf("journal store holds no artifacts: %+v", cc)
	}

	// Cursor paging: the second page starts strictly after the first.
	mid := events[len(events)/2].Seq
	page, ok := svc.JournalEvents(job.ID(), mid)
	if !ok {
		t.Fatal("paged read failed")
	}
	for _, ev := range page {
		if ev.Seq <= mid {
			t.Fatalf("page after %d contains seq %d", mid, ev.Seq)
		}
	}
}

// TestJournalDisabled checks that a negative capacity turns the journal off
// without disturbing verification.
func TestJournalDisabled(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, JournalCapacity: -1})
	defer svc.Shutdown(context.Background())
	job, err := svc.Submit(corpus.ByIdx(1).Pair)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := job.Wait(context.Background())
	if err != nil || rep == nil {
		t.Fatalf("verify failed: %v", err)
	}
	if _, ok := svc.JournalEvents(job.ID(), 0); ok {
		t.Error("journal available despite JournalCapacity < 0")
	}
	if st := job.Snapshot(); st.JournalEvents != 0 || st.JournalKey != "" {
		t.Errorf("snapshot leaks journal fields: %+v", st)
	}
}

// TestEventsEndpoint exercises GET /v1/jobs/{id}/events in both modes: the
// JSON page with ?after= paging, and the SSE stream, which must deliver
// every event and a terminal done frame for an already-finished job.
func TestEventsEndpoint(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	job, err := svc.Submit(corpus.ByIdx(1).Pair)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var page service.EventsResponse
	if err := json.NewDecoder(r.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || len(page.Events) == 0 {
		t.Fatalf("events page: status %d, %d events", r.StatusCode, len(page.Events))
	}
	if page.Next != page.Events[len(page.Events)-1].Seq {
		t.Errorf("next cursor %d, last seq %d", page.Next, page.Events[len(page.Events)-1].Seq)
	}

	// Paging from the end yields an empty page with an unchanged cursor.
	r, err = http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/events?after=" +
		strconv.FormatUint(page.Next, 10))
	if err != nil {
		t.Fatal(err)
	}
	var tail service.EventsResponse
	if err := json.NewDecoder(r.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(tail.Events) != 0 || tail.Next != page.Next {
		t.Errorf("tail page: %d events, next %d (want 0, %d)", len(tail.Events), tail.Next, page.Next)
	}

	// SSE replay of the finished job: every event as a data frame, then the
	// done frame.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+job.ID()+"/events?stream=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var streamed []journal.Event
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			sawDone = true
		case strings.HasPrefix(line, "data: ") && !sawDone:
			var ev journal.Event
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatalf("bad SSE frame %q: %v", line, err)
			}
			streamed = append(streamed, ev)
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done frame")
	}
	if len(streamed) != len(page.Events) {
		t.Fatalf("streamed %d events, page mode returned %d", len(streamed), len(page.Events))
	}
	if got, want := journal.Render(streamed, journal.RenderOptions{}),
		journal.Render(page.Events, journal.RenderOptions{}); got != want {
		t.Errorf("stream rendering differs from page rendering\n--- stream ---\n%s--- page ---\n%s", got, want)
	}

	// Unknown job and bad cursor answer 404/400.
	if r, _ := http.Get(ts.URL + "/v1/jobs/nope/events"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/events?after=x"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor: status %d", r.StatusCode)
	}
}

// TestWarmReverificationsShareJournal re-verifies one row three times on a
// warm persistent store: the three runs record the same events, so they
// share one content-addressed journal key and one jr disk entry, and their
// events endpoints serve equal events. Any run-dependent datum (a stamp, a
// duration) in a persisted event would give each run its own key and fail
// this test.
func TestWarmReverificationsShareJournal(t *testing.T) {
	st := openStores(t, t.TempDir(), nil)
	defer st.Close()
	svc := service.New(service.Config{Workers: 2, Stores: st})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	pair := corpus.ByIdx(7).Pair
	verify := func() *service.Job {
		t.Helper()
		job, err := svc.Submit(pair)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job
	}
	verify() // cold: P1 and P2 miss, so its journal differs from the warm ones
	cold := st.Counters()[journal.KeyClass]

	var key string
	var first []journal.Event
	for i := 0; i < 3; i++ {
		job := verify()
		jk := job.Snapshot().JournalKey
		if i == 0 {
			key = jk
		} else if jk != key {
			t.Fatalf("warm run %d journal key %s, first warm run %s", i+1, jk, key)
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var page service.EventsResponse
		err = json.NewDecoder(r.Body).Decode(&page)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK || len(page.Events) == 0 {
			t.Fatalf("warm run %d events: status %d, %d events, err %v", i+1, r.StatusCode, len(page.Events), err)
		}
		if i == 0 {
			first = page.Events
		} else if !reflect.DeepEqual(page.Events, first) {
			t.Errorf("warm run %d events differ from the first warm run's\n got %+v\nwant %+v", i+1, page.Events, first)
		}
	}
	warm := st.Counters()[journal.KeyClass]
	if warm.Writes != cold.Writes+1 || warm.DiskEntries != cold.DiskEntries+1 {
		t.Errorf("three warm runs: jr writes %d → %d, disk entries %d → %d; want one each",
			cold.Writes, warm.Writes, cold.DiskEntries, warm.DiskEntries)
	}
}

// TestScanJournalAggregation checks that a finished scan folds per-candidate
// journal accounting into its status.
func TestScanJournalAggregation(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Shutdown(context.Background())
	sc, err := svc.StartScan(&service.ScanRequest{CorpusIdx: 1, CorpusTargets: true, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := sc.Snapshot()
	if len(st.Candidates) == 0 {
		t.Fatal("scan produced no candidates")
	}
	total := 0
	for _, c := range st.Candidates {
		if c.JobID != "" && c.JournalEvents == 0 {
			t.Errorf("candidate %s (job %s) has no journal accounting", c.Target, c.JobID)
		}
		total += c.JournalEvents
	}
	if st.JournalEvents != total {
		t.Errorf("scan total %d, sum of candidates %d", st.JournalEvents, total)
	}
}
