package service

import (
	"octopocs/internal/artifact"
	"octopocs/internal/core"
)

// PhaseLatency summarizes the latency of one pipeline phase, read from the
// phase's octopocs_phase_seconds histogram, which core.Pipeline observes on
// every run of the phase: cache hits and phases of jobs that later failed
// count too, and a phase that did not run adds nothing. Count and TotalMS
// are its exact count and sum; the quantiles are estimated from its fixed
// buckets (linear interpolation within the winning bucket), so they are
// approximate but cheap and mergeable.
type PhaseLatency struct {
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// Stats is the point-in-time service snapshot served by /v1/stats.
type Stats struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"` // jobs waiting for a worker now
	QueueCap   int `json:"queue_cap"`
	Running    int `json:"running"`

	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`

	// PhaseLatency is keyed by phase name, one key for each of
	// core.Phases: p1, absint, static, p2_prep, reform, hybrid, p4.
	PhaseLatency map[string]PhaseLatency `json:"phase_latency"`

	// P1Cache/P2Cache hold the hit/miss counters of those classes' artifact
	// stores; nil when caching is off. JournalCache is the same for the
	// journal store.
	P1Cache      *CacheCounters `json:"p1_cache,omitempty"`
	P2Cache      *CacheCounters `json:"p2_cache,omitempty"`
	JournalCache *CacheCounters `json:"journal_cache,omitempty"`

	// Stores holds the persistent artifact stores' full accounting keyed by
	// class (p1, p2, jr, ci); absent when the service runs memory-only.
	// StoreSaturated mirrors the admission-control signal: while true,
	// submissions answer 429.
	Stores         map[string]artifact.Counters `json:"stores,omitempty"`
	StoreSaturated bool                         `json:"store_saturated,omitempty"`
}

// Stats snapshots the service counters, queue occupancy, and cache
// accounting.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Workers:      s.cfg.Workers,
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		Running:      s.running,
		Submitted:    s.met.submitted.Value(),
		Rejected:     s.met.rejected.Value(),
		Completed:    s.met.completed.Value(),
		Failed:       s.met.failed.Value(),
		Cancelled:    s.met.cancelled.Value(),
		PhaseLatency: make(map[string]PhaseLatency, len(core.Phases)),
	}
	for _, name := range core.Phases {
		h := s.met.engines.Phase[name]
		const ms = 1000
		pl := PhaseLatency{
			Count:   h.Count(),
			TotalMS: h.Sum() * ms,
			P50MS:   h.Quantile(0.50) * ms,
			P90MS:   h.Quantile(0.90) * ms,
			P99MS:   h.Quantile(0.99) * ms,
		}
		if pl.Count > 0 {
			pl.AvgMS = pl.TotalMS / float64(pl.Count)
		}
		st.PhaseLatency[name] = pl
	}
	// s.caches and s.jrc are written once in New, before any worker or
	// handler can call Stats, so reading them is safe anywhere; they stay
	// inside the critical section so the whole snapshot is taken at one
	// point in time. Lock order Service.mu → cache lock is safe: no cache
	// calls back into the service.
	st.P1Cache = cacheCounters(s.caches[core.ClassP1])
	st.P2Cache = cacheCounters(s.caches[core.ClassP2])
	st.JournalCache = cacheCounters(s.jrc)
	st.Stores = s.cfg.Stores.Counters()
	st.StoreSaturated = s.cfg.Stores.Saturated()
	s.mu.Unlock()
	return st
}

// CacheCounters is a point-in-time snapshot of one artifact class's
// accounting: the tiered artifact-store counters folded into a flat hit/miss
// view (the full per-tier breakdown is in Stats.Stores).
type CacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// cacheCounters snapshots one class's store; nil when the class is not
// cached.
func cacheCounters(c core.Cache) *CacheCounters {
	st, ok := c.(*artifact.Store)
	if !ok {
		return nil
	}
	ac := st.Counters()
	return &CacheCounters{
		Hits:      ac.Hits(),
		Misses:    ac.Misses,
		Evictions: ac.Evictions + ac.HotEvictions,
		Entries:   st.Len(),
	}
}
