package clonedet

import "octopocs/internal/telemetry"

// Metrics is the optional counter sink for retrieval. Add and Scan
// aggregate locally and flush here exactly once per call (the engine
// pattern used by vm/symex/solver), and the verification driver reports
// each candidate's fate through ObserveVerdict when its job finishes. A
// nil *Metrics is a valid no-op sink.
type Metrics struct {
	// FunctionsIndexed counts target functions fingerprinted into an index.
	FunctionsIndexed *telemetry.Counter
	// Scans counts completed Scan calls.
	Scans *telemetry.Counter
	// CandidatesRanked counts candidates emitted by Scan (post-threshold,
	// post-TopK).
	CandidatesRanked *telemetry.Counter
	// Confirmed counts candidates whose verification verdict was
	// triggered or triggered-by-fuzzing; Refuted counts not-triggerable
	// verdicts. Failed verifications count toward neither.
	Confirmed *telemetry.Counter
	Refuted   *telemetry.Counter
}

// NewMetrics registers the retrieval counter family on reg under its
// canonical octopocs_clonedet_* names. A nil registry yields a nil bundle
// (instrumentation off).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		FunctionsIndexed: reg.Counter("octopocs_clonedet_functions_indexed_total",
			"Target functions fingerprinted into a clone-detection index.", nil),
		Scans: reg.Counter("octopocs_clonedet_scans_total",
			"Clone-detection scans completed.", nil),
		CandidatesRanked: reg.Counter("octopocs_clonedet_candidates_ranked_total",
			"Candidate (T, ℓ, ep) tuples emitted by clone-detection scans.", nil),
		Confirmed: reg.Counter("octopocs_clonedet_confirmed_total",
			"Scan candidates confirmed triggerable by pipeline verification.", nil),
		Refuted: reg.Counter("octopocs_clonedet_refuted_total",
			"Scan candidates refuted (not-triggerable) by pipeline verification.", nil),
	}
}

// observeIndexed flushes one AddAll call.
func (m *Metrics) observeIndexed(functions int) {
	if m == nil {
		return
	}
	m.FunctionsIndexed.Add(uint64(functions))
}

// observeScan flushes one Scan call.
func (m *Metrics) observeScan(candidates int) {
	if m == nil {
		return
	}
	m.Scans.Inc()
	m.CandidatesRanked.Add(uint64(candidates))
}

// ObserveVerdict records one verified candidate: confirmed when the
// pipeline triggered the vulnerability in the target, refuted when it
// proved the clone not triggerable.
func (m *Metrics) ObserveVerdict(confirmed bool) {
	if m == nil {
		return
	}
	if confirmed {
		m.Confirmed.Inc()
	} else {
		m.Refuted.Inc()
	}
}
