package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"octopocs/internal/telemetry"
)

// span is one timed interval of a traced run. Times are nanoseconds since
// the recorder started; Self is the duration minus the part of it that the
// span's children cover, filled in by computeSelf.
type span struct {
	ID     int    `json:"id"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps every span of a traced run in memory. The benchmark opens
// spans around each call it makes into the program and grafts beneath them
// the span trees the program records itself (telemetry.Trace). A nil
// recorder records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newTrace allocates the identifier shared by the spans of one job.
func (r *recorder) newTrace() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(trace, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Trace: trace, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// graft copies a program-recorded span tree under parent.
func (r *recorder) graft(trace, parent int, snap telemetry.TraceSnapshot) {
	if r == nil {
		return
	}
	base := snap.Start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	var add func(parent int, nodes []*telemetry.SpanSnapshot)
	add = func(parent int, nodes []*telemetry.SpanSnapshot) {
		for _, n := range nodes {
			start := base + n.StartUS*1000
			id := len(r.spans)
			name := n.Name
			if cached, _ := n.Attrs["cached"].(bool); cached {
				name += cachedSuffix
			}
			r.spans = append(r.spans, span{
				ID: id, Trace: trace, Parent: parent, Name: name,
				Start: start, End: start + n.DurationUS*1000,
			})
			add(id, n.Children)
		}
	}
	add(parent, snap.Spans)
}

// computeSelf fills every span's self time: its duration minus the union of
// its children's intervals clipped to it. Children of parallel engines may
// overlap, which is why the union is taken rather than the sum.
func (r *recorder) computeSelf() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.End < s.Start {
			s.End = s.Start
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, reach), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return append([]span(nil), r.spans...)
}

// cachedSuffix marks a grafted phase span whose artifact came from a
// cache: its self time is the cache hit path, not the phase's own work.
const cachedSuffix = "+cached"

// layerOf attributes a span's self time to a layer metric. Program span
// names come from internal/core and internal/service; the rest are the
// benchmark's own spans around its calls. Spans missing here count as
// unattributed glue.
var layerOf = map[string]string{
	"p1" + cachedSuffix:      "core.cache_hit_ms",
	"p2_prep" + cachedSuffix: "core.cache_hit_ms",
	"crash_s":                "vm.ms",
	"p4":                     "vm.ms",
	"minimize":               "vm.ms",
	"classify":               "vm.ms",
	"taint":                  "taint.ms",
	"absint":                 "absint.ms",
	"static":                 "mirstatic.ms",
	"p2_prep":                "cfg.build_ms",
	"distance_map":           "cfg.distance_ms",
	"discover":               "symex.discover_ms",
	"reform":                 "symex.directed_ms",
	"symex.Run":              "symex.directed_ms",
	"ep_entry":               "solver.placement_ms",
	"solve":                  "solver.solve_ms",
	"hybrid":                 "hybrid.campaign_ms",
	"http.submit":            "service.http_ms",
}

// callSpans are the benchmark's spans around one public call into the
// program; coverage is measured over their subtrees.
var callSpans = map[string]bool{"core.VerifyContext": true, "http.submit": true, "symex.Run": true}

// layerTotals sums self time per layer over all spans (in ms) and returns,
// for each call span, the share of its wall time that named layers cover.
func layerTotals(spans []span) (totals map[string]float64, coverage []float64) {
	totals = make(map[string]float64)
	parentOf := make(map[int]int, len(spans))
	for _, s := range spans {
		parentOf[s.ID] = s.Parent
		if l, ok := layerOf[s.Name]; ok {
			totals[l] += float64(s.Self) / 1e6
		}
	}
	attributed := make(map[int]int64) // call span id -> attributed self ns
	for _, s := range spans {
		if _, ok := layerOf[s.Name]; !ok {
			continue
		}
		for id := s.ID; id >= 0; id = parentOf[id] {
			if callSpans[spans[id].Name] {
				attributed[id] += s.Self
				break
			}
		}
	}
	for _, s := range spans {
		if callSpans[s.Name] && s.End > s.Start {
			coverage = append(coverage, float64(attributed[s.ID])/float64(s.End-s.Start))
		}
	}
	return totals, coverage
}

// writeSpans writes every span with its self time as one JSON document.
func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
