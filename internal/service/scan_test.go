package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/corpus"
	"octopocs/internal/service"
)

// scanFamilyKeys renders the corpus/NN keys of a truth family.
func scanFamilyKeys(family string) map[string]bool {
	out := map[string]bool{}
	for _, idx := range corpus.FamilyTargets(family) {
		out[scanKey(idx)] = true
	}
	return out
}

func scanKey(idx int) string { return fmt.Sprintf("corpus/%02d", idx) }

// TestScanEndToEndConfirmed drives the full batch flow for every corpus
// CVE: each scan indexes all 17 corpus targets, retrieval must stay within
// the source's clone family and surface the true pair, and verification
// must agree with Table II on the true pair and never confirm a candidate
// whose own row is not triggerable. The retrieval totals are the ones
// EXPERIMENTS quotes: macro precision and recall 1.0, MRR 40/51.
func TestScanEndToEndConfirmed(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Shutdown(context.Background())

	rows := corpus.CloneTruth()
	var sumP, sumR, sumRR float64
	for _, truth := range rows {
		sc, err := svc.StartScan(&service.ScanRequest{
			CorpusIdx:     truth.Idx,
			CorpusTargets: true,
		})
		if err != nil {
			t.Fatalf("row %d: StartScan: %v", truth.Idx, err)
		}
		if err := sc.Wait(context.Background()); err != nil {
			t.Fatalf("row %d: %v", truth.Idx, err)
		}
		st := sc.Snapshot()
		if st.State != "done" {
			t.Fatalf("row %d: scan state = %q, want done", truth.Idx, st.State)
		}
		if st.Index.Targets != 17 {
			t.Errorf("row %d: indexed %d targets, want 17", truth.Idx, st.Index.Targets)
		}
		family := scanFamilyKeys(truth.Family)
		var diagonal *service.ScanCandidate
		inFamily, rank := 0, 0
		for i := range st.Candidates {
			c := &st.Candidates[i]
			if family[c.Target] {
				inFamily++
			} else {
				t.Errorf("row %d: cross-family candidate %s (score %.3f)", truth.Idx, c.Target, c.Score)
			}
			if c.Error != "" {
				t.Errorf("row %d: candidate %s: %s", truth.Idx, c.Target, c.Error)
			}
			if c.Target == scanKey(truth.Idx) {
				diagonal, rank = c, i+1
			}
			var target int
			if _, err := fmt.Sscanf(c.Target, "corpus/%d", &target); err != nil {
				t.Fatalf("row %d: candidate key %q: %v", truth.Idx, c.Target, err)
			}
			if c.Confirmed && !corpus.CloneTruthByIdx(target).ExpectTriggered {
				t.Errorf("row %d: candidate %s falsely confirmed triggerable: %+v", truth.Idx, c.Target, c)
			}
		}
		if diagonal == nil {
			t.Errorf("row %d: true pair %s not retrieved; candidates: %+v", truth.Idx, scanKey(truth.Idx), st.Candidates)
			continue
		}
		if diagonal.Confirmed != truth.ExpectTriggered {
			t.Errorf("row %d: true pair confirmed = %v, Table II says %v: %+v",
				truth.Idx, diagonal.Confirmed, truth.ExpectTriggered, diagonal)
		}
		if truth.ExpectTriggered && diagonal.Verdict != "triggered" {
			t.Errorf("row %d: true pair verdict = %q, want triggered", truth.Idx, diagonal.Verdict)
		}
		if diagonal.JobID == "" {
			t.Errorf("row %d: diagonal candidate has no verification job", truth.Idx)
		}
		sumP += float64(inFamily) / float64(len(st.Candidates))
		sumR += float64(inFamily) / float64(len(family))
		sumRR += 1 / float64(rank)
	}
	n := float64(len(rows))
	if p := sumP / n; p != 1 {
		t.Errorf("mean precision = %.3f, want 1", p)
	}
	if r := sumR / n; r != 1 {
		t.Errorf("mean recall = %.3f, want 1", r)
	}
	if mrr := sumRR / n; math.Abs(mrr-40.0/51) > 1e-9 {
		t.Errorf("MRR = %.4f, want 40/51 = %.4f", mrr, 40.0/51)
	}

	// The scans surface through the listing APIs.
	scans := svc.Scans()
	if len(scans) != len(rows) {
		t.Fatalf("Scans() lists %d scans, want %d", len(scans), len(rows))
	}
	for _, sc := range scans {
		if _, ok := svc.ScanByID(sc.ID); !ok {
			t.Errorf("ScanByID lost scan %s", sc.ID)
		}
	}
}

// TestScanRefutesNonTriggerable checks the precision half of the contract on
// corpus row 16 (a true clone whose vulnerability is not triggerable in T):
// retrieval must still surface the pair, and verification must refute it —
// never confirm.
func TestScanRefutesNonTriggerable(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Shutdown(context.Background())

	sc, err := svc.StartScan(&service.ScanRequest{
		CorpusIdx:     16,
		CorpusTargets: true,
	})
	if err != nil {
		t.Fatalf("StartScan: %v", err)
	}
	if err := sc.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := sc.Snapshot()
	var diagonal *service.ScanCandidate
	for i := range st.Candidates {
		if st.Candidates[i].Target == scanKey(16) {
			diagonal = &st.Candidates[i]
		}
	}
	if diagonal == nil {
		t.Fatalf("true clone %s not retrieved", scanKey(16))
	}
	if diagonal.Confirmed {
		t.Errorf("false positive: non-triggerable clone confirmed: %+v", diagonal)
	}
	if diagonal.Verdict != "not-triggerable" {
		t.Errorf("diagonal verdict = %q, want not-triggerable", diagonal.Verdict)
	}
}

// TestScanHTTPRetrieveOnly drives POST /v1/scan over HTTP with an inline
// source against the corpus index, retrieval only: no verification jobs may
// be created.
func TestScanHTTPRetrieveOnly(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := corpus.ByIdx(7)
	req := service.ScanRequest{
		Name:          "inline-j2k",
		S:             asm.Format(spec.Pair.S),
		CorpusTargets: true,
		RetrieveOnly:  true,
	}
	for fn := range spec.Pair.Lib {
		req.Vuln = append(req.Vuln, fn)
	}
	resp, body := postJSON(t, ts.URL+"/v1/scan?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d: %s", resp.StatusCode, body)
	}
	var st service.ScanStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Name != "inline-j2k" {
		t.Fatalf("scan = %+v, want done/inline-j2k", st)
	}
	family := scanFamilyKeys("j2k")
	found := false
	for _, c := range st.Candidates {
		if !family[c.Target] {
			t.Errorf("cross-family candidate %s", c.Target)
		}
		if c.JobID != "" || c.Verdict != "" {
			t.Errorf("retrieve-only scan created verification state: %+v", c)
		}
		if c.Target == scanKey(7) {
			found = true
		}
	}
	if !found {
		t.Errorf("true pair %s not retrieved; candidates: %+v", scanKey(7), st.Candidates)
	}
	if len(svc.Jobs()) != 0 {
		t.Errorf("retrieve-only scan enqueued %d jobs", len(svc.Jobs()))
	}

	// The scan endpoints serve it back.
	r, err := http.Get(ts.URL + "/v1/scans/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/scans/%s: status %d", st.ID, r.StatusCode)
	}
	if r, err = http.Get(ts.URL + "/v1/scans/absent"); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/scans/absent: status %d, want 404", r.StatusCode)
	}
}

// TestScanFindEp: the scan derives the entry point from the S crash
// backtrace and anchors candidates on it.
func TestScanFindEp(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())

	sc, err := svc.StartScan(&service.ScanRequest{
		CorpusIdx:     1,
		CorpusTargets: true,
		FindEp:        true,
		RetrieveOnly:  true,
	})
	if err != nil {
		t.Fatalf("StartScan: %v", err)
	}
	st := sc.Snapshot()
	if st.Ep == "" {
		t.Fatal("FindEp scan has no entry point")
	}
	if !corpus.ByIdx(1).Pair.Lib[st.Ep] {
		t.Errorf("derived ep %q is not an ℓ function", st.Ep)
	}
	if len(st.Candidates) == 0 {
		t.Fatal("anchored scan retrieved nothing")
	}
	for _, c := range st.Candidates {
		if c.Ep != st.Ep {
			t.Errorf("candidate %s ep = %q, want %q", c.Target, c.Ep, st.Ep)
		}
	}
}

// TestScanBadRequests covers the request validation surface over HTTP.
func TestScanBadRequests(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for name, req := range map[string]service.ScanRequest{
		"bad-corpus-idx": {CorpusIdx: 99, CorpusTargets: true},
		"no-targets":     {CorpusIdx: 1},
		"no-vuln":        {S: asm.Format(corpus.ByIdx(1).Pair.S), CorpusTargets: true},
		"bad-source":     {S: "not mir text", Vuln: []string{"f"}, CorpusTargets: true},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/scan", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

// TestScanMetrics: a completed scan moves every clonedet counter.
func TestScanMetrics(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Shutdown(context.Background())

	sc, err := svc.StartScan(&service.ScanRequest{CorpusIdx: 16, CorpusTargets: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := svc.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	exposition := text.String()
	for _, want := range []string{
		"octopocs_clonedet_functions_indexed_total",
		"octopocs_clonedet_scans_total 1",
		"octopocs_clonedet_candidates_ranked_total",
		"octopocs_clonedet_refuted_total",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
