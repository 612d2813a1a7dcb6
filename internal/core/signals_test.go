package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/journal"
	"octopocs/internal/service"
	"octopocs/internal/telemetry"
)

// phaseTiming returns the PhaseTimings duration of one phase span.
func phaseTiming(t core.PhaseTimings, phase string) time.Duration {
	return map[string]time.Duration{
		"p1": t.P1, "absint": t.Absint, "static": t.Static, "p2_prep": t.P2Prep,
		"reform": t.Reform, "hybrid": t.Hybrid, "p4": t.P4,
	}[phase]
}

// phaseCached names the phases that own an artifact class: their
// cache.probe events carry the phase name.
var phaseCached = map[string]bool{"p1": true, "absint": true, "static": true, "p2_prep": true, "hybrid": true}

// TestEveryPhaseEmitsEverySignal runs every layer with every artifact class
// cached, on a static short-circuit (row 16), a hybrid rescue (row 19) and
// a triggered pair (row 7), twice through one pipeline. Every phase that
// ran must have its span under verify with a cached attribute, a positive
// timing, exactly one octopocs_phase_seconds observation, and exactly one
// cache.probe per owned class; on the second run every probe must hit. A
// phase that did not run observes nothing. The service's /v1/stats reports
// all seven phases from the same series.
func TestEveryPhaseEmitsEverySignal(t *testing.T) {
	for _, tc := range []struct {
		row    int
		phases []string
	}{
		{16, []string{"p1", "absint", "static"}},
		{19, []string{"p1", "absint", "static", "p2_prep", "reform", "hybrid", "p4"}},
		{7, []string{"p1", "absint", "static", "p2_prep", "reform", "p4"}},
	} {
		t.Run(fmt.Sprintf("row-%02d", tc.row), func(t *testing.T) {
			met := core.NewMetrics(telemetry.NewRegistry())
			pl := core.New(core.Config{StaticPrune: true, Absint: true, HybridFuzz: true, Metrics: met})
			caches := make(map[string]core.Cache, len(core.Classes))
			for _, class := range core.Classes {
				caches[class] = newMapCache()
			}
			pl.SetCaches(caches)
			for n, pass := range []string{"cold", "warm"} {
				tr := telemetry.NewTrace(pass, "verify")
				rec := journal.New(pass, journal.Options{})
				ctx := journal.With(telemetry.WithTrace(context.Background(), tr), rec)
				rep, err := pl.VerifyContext(ctx, corpus.ByIdx(tc.row).Pair)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				rec.Close()
				tr.Finish()

				snap := tr.Snapshot()
				if len(snap.Spans) != 1 || snap.Spans[0].Name != "verify" {
					t.Fatalf("%s: want one verify root span, got %+v", pass, snap.Spans)
				}
				spans := map[string]*telemetry.SpanSnapshot{}
				for _, sp := range snap.Spans[0].Children {
					spans[sp.Name] = sp
				}
				if len(spans) != len(tc.phases) {
					t.Errorf("%s: phase spans %v, want %v", pass, snap.Spans[0].Children, tc.phases)
				}
				probes := map[string][]bool{}
				for _, ev := range rec.Events() {
					if ev.Type == journal.EvCacheProbe {
						phase := ev.Attrs["phase"].(string)
						probes[phase] = append(probes[phase], ev.Attrs["hit"].(bool))
					}
				}
				for _, phase := range core.Phases {
					want := uint64(0)
					if slices.Contains(tc.phases, phase) {
						want = uint64(n + 1)
					}
					if got := met.Phase[phase].Count(); got != want {
						t.Errorf("%s: octopocs_phase_seconds{phase=%q} count = %d, want %d", pass, phase, got, want)
					}
				}
				for _, phase := range tc.phases {
					sp := spans[phase]
					if sp == nil {
						t.Errorf("%s: no %s span under verify", pass, phase)
						continue
					}
					hit, ok := sp.Attrs["cached"].(bool)
					if !ok {
						t.Errorf("%s: %s span carries no cached bool: %v", pass, phase, sp.Attrs)
					}
					if d := phaseTiming(rep.Timings, phase); d <= 0 {
						t.Errorf("%s: %s timing = %v, want > 0", pass, phase, d)
					}
					if !phaseCached[phase] {
						if len(probes[phase]) != 0 {
							t.Errorf("%s: uncached phase %s probed the cache", pass, phase)
						}
						continue
					}
					if len(probes[phase]) != 1 {
						t.Errorf("%s: %s emitted %d cache.probe events, want 1", pass, phase, len(probes[phase]))
						continue
					}
					warm := pass == "warm"
					if probes[phase][0] != warm || hit != warm {
						t.Errorf("%s: %s probe hit=%v span cached=%v, want %v", pass, phase, probes[phase][0], hit, warm)
					}
				}
			}
		})
	}

	// The service reads the same series: after one job on row 19, every
	// phase has run exactly once.
	svc := service.New(service.Config{Workers: 1, Pipeline: core.Config{StaticPrune: true, Absint: true, HybridFuzz: true}})
	defer svc.Shutdown(context.Background())
	job, err := svc.Submit(corpus.ByIdx(19).Pair)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.PhaseLatency) != len(core.Phases) {
		t.Errorf("phase_latency keys = %d, want %d", len(st.PhaseLatency), len(core.Phases))
	}
	for _, phase := range core.Phases {
		if pl, ok := st.PhaseLatency[phase]; !ok || pl.Count != 1 {
			t.Errorf("phase_latency[%q] = %+v (present %v), want count 1", phase, pl, ok)
		}
	}
}
