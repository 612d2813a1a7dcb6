package service

import (
	"octopocs/internal/artifact"
	"octopocs/internal/clonedet"
	"octopocs/internal/core"
	"octopocs/internal/telemetry"
)

// serviceMetrics holds the instrument handles the service records into. The
// engine sinks (VM, symex, solver, phase latency) live in engines and are
// threaded into the pipeline config; everything else is observed by the job
// lifecycle in Submit/runJob/finishJob or collected at scrape time from live
// state.
type serviceMetrics struct {
	submitted *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	cancelled *telemetry.Counter

	// queueWait is submission-to-start latency.
	queueWait *telemetry.Histogram

	verdicts map[core.Verdict]*telemetry.Counter
	types    map[core.ResultType]*telemetry.Counter

	engines *core.Metrics
	// clonedet is the retrieval counter family; batch scans thread it into
	// their per-request index and report candidate verdicts through it.
	clonedet *clonedet.Metrics
}

// newServiceMetrics registers every service-level family on reg. The verdict
// and result-type families are pre-registered for all known values so they
// expose as 0 before the first job completes. Gauges over live state (queue
// depth, running jobs, cache counters) are scrape-time functions; WriteText
// holds the registry lock while calling them, so they may take Service.mu
// but the service must never touch the registry while holding its own lock.
func newServiceMetrics(s *Service, reg *telemetry.Registry) *serviceMetrics {
	m := &serviceMetrics{
		submitted: reg.Counter("octopocs_jobs_submitted_total",
			"Jobs accepted into the queue.", nil),
		rejected: reg.Counter("octopocs_jobs_rejected_total",
			"Submissions rejected (queue full or shutting down).", nil),
		completed: reg.Counter("octopocs_jobs_completed_total",
			"Jobs that produced a report.", nil),
		failed: reg.Counter("octopocs_jobs_failed_total",
			"Jobs that ended in a pipeline error.", nil),
		cancelled: reg.Counter("octopocs_jobs_cancelled_total",
			"Jobs cancelled or timed out.", nil),
		queueWait: reg.Histogram("octopocs_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", nil, nil),
		verdicts: make(map[core.Verdict]*telemetry.Counter, len(core.Verdicts)),
		types:    make(map[core.ResultType]*telemetry.Counter, len(core.ResultTypes)),
	}
	for _, v := range core.Verdicts {
		m.verdicts[v] = reg.Counter("octopocs_verdicts_total",
			"Completed-job verdicts.", telemetry.Labels{"verdict": v.String()})
	}
	for _, t := range core.ResultTypes {
		m.types[t] = reg.Counter("octopocs_result_types_total",
			"Completed-job Table II result types.", telemetry.Labels{"type": t.String()})
	}

	reg.GaugeFunc("octopocs_queue_depth",
		"Jobs waiting for a worker.", nil,
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("octopocs_jobs_running",
		"Jobs currently executing.", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.running)
		})
	reg.Gauge("octopocs_workers", "Worker-pool size.", nil).Set(int64(s.cfg.Workers))
	registerStoreMetrics(reg, s.stores)

	m.engines = core.NewMetrics(reg)
	m.clonedet = clonedet.NewMetrics(reg)
	return m
}

// registerStoreMetrics exposes the store bundle's accounting as scrape-time
// collectors, one series per class; nothing when caching is off. The
// disk-bytes gauge, corruption counter, write-error counter, and saturation
// flag are the alert-worthy signals (see OPERATIONS.md); hits and misses
// feed the warm-restart dashboards. A memory-only bundle's disk series
// read 0.
func registerStoreMetrics(reg *telemetry.Registry, stores *Stores) {
	if stores == nil {
		return
	}
	for i, st := range stores.stores {
		labels := telemetry.Labels{"class": storeClasses[i].name}
		counter := func(name, help string, read func(artifact.Counters) uint64) {
			reg.CounterFunc(name, help, labels, func() float64 {
				return float64(read(st.Counters()))
			})
		}
		counter("octopocs_store_hits_total",
			"Artifact store hits across both tiers.",
			func(c artifact.Counters) uint64 { return c.Hits() })
		counter("octopocs_store_disk_hits_total",
			"Artifact store hits served from the disk tier (decode paid).",
			func(c artifact.Counters) uint64 { return c.DiskHits })
		counter("octopocs_store_misses_total",
			"Artifact store misses.",
			func(c artifact.Counters) uint64 { return c.Misses })
		counter("octopocs_store_writes_total",
			"Artifact store successful disk persists.",
			func(c artifact.Counters) uint64 { return c.Writes })
		counter("octopocs_store_write_errors_total",
			"Artifact store failed disk persists (each opens a saturation window).",
			func(c artifact.Counters) uint64 { return c.WriteErrors })
		counter("octopocs_store_evictions_total",
			"Artifact store disk entries evicted by the byte budget.",
			func(c artifact.Counters) uint64 { return c.Evictions })
		counter("octopocs_store_corrupt_dropped_total",
			"Artifact store entries dropped for failing header or checksum validation.",
			func(c artifact.Counters) uint64 { return c.CorruptDropped })
		reg.GaugeFunc("octopocs_store_disk_bytes",
			"Artifact store disk tier occupancy in bytes.", labels,
			func() float64 { return float64(st.Counters().DiskBytes) })
		reg.GaugeFunc("octopocs_store_disk_entries",
			"Artifact store disk tier entry count.", labels,
			func() float64 { return float64(st.Counters().DiskEntries) })
		reg.GaugeFunc("octopocs_store_saturated",
			"1 while this store's disk tier is refusing writes.", labels,
			func() float64 {
				if st.Saturated() {
					return 1
				}
				return 0
			})
	}
}
