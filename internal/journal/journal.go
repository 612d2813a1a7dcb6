// Package journal records the causal chain behind every verification
// verdict: a bounded, append-only event log that explains *why* the
// pipeline concluded what it did. Every phase contributes its decisions
// with their inputs — P1 cache probes and bunch extraction, the static
// pre-analysis's dominator-proved dead regions and short-circuits (pre-P2),
// the directed symbolic execution of P2/P3 (fork/prune/commit traffic at
// verbose level, the committed path and stats always), solver SAT-memo
// hits and complement short-circuits, fault injections with their
// retries, the concrete P4 verify/minimize/classify steps, and a final
// verdict record that links the verdict to the events that produced it.
//
// The journal is observability, not control flow: a nil *Recorder is a
// valid no-op sink (the same discipline as telemetry counters), so engine
// code emits unconditionally and pays one nil check when journaling is
// off. Event types are classified by a static schema (schema.go) into
// deterministic ones — emitted in a fixed order from the job's own
// goroutine, so the default `explain` rendering is byte-identical for any
// symex worker count — and nondeterministic ones (worker-attributed
// frontier traffic, schedule-dependent stats), which only appear under
// verbose rendering.
//
// Concurrency: a Recorder is safe for concurrent use by any number of
// emitting goroutines (symex frontier workers, solver calls) and readers;
// all state is guarded by one mutex. Updated returns a channel that is
// closed on the next append or Close, giving streaming readers a
// wakeup-free poll loop. The capacity bound drops the newest non-final
// events when full (the causal prefix is the valuable part), counting
// drops; EmitFinal always lands.
package journal

import (
	"context"
	"sync"
)

// DefaultCapacity bounds a Recorder's retained events when Options.Capacity
// is zero. At the default verbosity a full 17-pair corpus run emits well
// under a hundred events per job; the headroom is for verbose mode.
const DefaultCapacity = 8192

// Verbosity selects how much frontier/solver traffic a Recorder retains.
type Verbosity int

// Verbosity levels.
const (
	// VerbSummary records phase decisions and outcomes only: every
	// deterministic event plus schedule-dependent summaries (symex.stats).
	VerbSummary Verbosity = iota
	// VerbVerbose additionally records per-state frontier traffic
	// (fork/prune/commit) and per-call solver cache events.
	VerbVerbose
)

// Attrs carries an event's key/value payload. Values must be
// JSON-marshalable; keep them to strings, numbers, bools and small
// slices so events stay cheap to encode.
type Attrs = map[string]any

// Event is one journal entry. Seq is unique and strictly increasing per
// Recorder (dropped events consume seqs too, so gaps witness drops).
// Det mirrors the schema's classification at emission time, making
// persisted journals self-describing. An event carries no wall-clock
// stamp: a job's times live in its status, so identical runs encode to
// identical JSONL and share one content-addressed Key. Journals written
// with the former "tus" field still decode; the field is ignored.
type Event struct {
	Seq   uint64 `json:"seq"`
	Type  Type   `json:"type"`
	Det   bool   `json:"det"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

// Options configures a Recorder.
type Options struct {
	// Capacity bounds retained events; 0 means DefaultCapacity,
	// negative means unbounded.
	Capacity int
	// Verbosity selects the retained event classes.
	Verbosity Verbosity
}

// Recorder is a bounded, append-only event journal for one job. The zero
// value is not useful; use New. A nil Recorder is a valid no-op sink.
type Recorder struct {
	id  string
	cap int
	vrb Verbosity

	mu      sync.Mutex
	events  []Event
	seq     uint64
	dropped uint64
	closed  bool
	// notify is lazily allocated on the first Updated call and closed
	// (then cleared) on the next append or Close, so jobs nobody watches
	// never allocate a channel.
	notify chan struct{}
}

// New returns a Recorder for the given job id.
func New(id string, o Options) *Recorder {
	c := o.Capacity
	if c == 0 {
		c = DefaultCapacity
	}
	return &Recorder{id: id, cap: c, vrb: o.Verbosity}
}

// ID returns the job id the Recorder was created with ("" on nil).
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Verbose reports whether verbose-class events would be retained. Hot
// paths use it to skip building attribute maps that would be discarded.
func (r *Recorder) Verbose() bool {
	return r != nil && r.vrb >= VerbVerbose
}

// Emit appends one event and returns its seq (0 when nothing was
// recorded: nil or closed Recorder, or a verbose-class event at summary
// verbosity). When the capacity bound is hit the event is dropped —
// newest-out, keeping the causal prefix — but still consumes a seq and
// increments the dropped counter.
func (r *Recorder) Emit(t Type, attrs Attrs) uint64 {
	if r == nil {
		return 0
	}
	spec, ok := registry[t]
	if ok && spec.Verb > r.vrb {
		return 0
	}
	return r.append(t, spec.Det, attrs, false)
}

// EmitFinal appends the job's terminal event (verdict or job error). It
// bypasses both the verbosity filter and the capacity bound, and
// auto-attaches an "evidence" attribute: the seqs of every deterministic
// event retained so far, linking the verdict to its causal chain.
func (r *Recorder) EmitFinal(t Type, attrs Attrs) uint64 {
	if r == nil {
		return 0
	}
	det := registry[t].Det
	if attrs == nil {
		attrs = Attrs{}
	}
	return r.append(t, det, attrs, true)
}

func (r *Recorder) append(t Type, det bool, attrs Attrs, final bool) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	r.seq++
	if final {
		evidence := make([]uint64, 0, len(r.events))
		for _, ev := range r.events {
			if ev.Det {
				evidence = append(evidence, ev.Seq)
			}
		}
		attrs["evidence"] = evidence
	} else if r.cap >= 0 && len(r.events) >= r.cap {
		r.dropped++
		return r.seq
	}
	r.events = append(r.events, Event{Seq: r.seq, Type: t, Det: det, Attrs: attrs})
	r.wake()
	return r.seq
}

// wake closes and clears the notify channel; callers hold r.mu.
func (r *Recorder) wake() {
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
}

// Events returns a copy of the retained events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// EventsAfter returns a copy of the retained events with Seq > after;
// with after == 0 it is Events. The cursor for the next page is the Seq
// of the last returned event.
func (r *Recorder) EventsAfter(after uint64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := 0
	for i < len(r.events) && r.events[i].Seq <= after {
		i++
	}
	if i == len(r.events) {
		return nil
	}
	return append([]Event(nil), r.events[i:]...)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns how many events the capacity bound discarded.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Updated returns a channel closed on the next append or Close. On a nil
// or already-closed Recorder it returns an already-closed channel. Take
// the channel *before* reading events to avoid missing a wakeup.
func (r *Recorder) Updated() <-chan struct{} {
	if r == nil {
		return closedCh
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return closedCh
	}
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	return r.notify
}

var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Close marks the journal complete; later Emits are ignored and pending
// Updated channels fire so streaming readers observe the end.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.wake()
}

// Closed reports whether Close was called.
func (r *Recorder) Closed() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// ctxKey carries a Recorder through a context.
type ctxKey struct{}

// With returns a context carrying rec; engine phases retrieve it with
// FromContext. Carrying nil is allowed and yields the no-op Recorder.
func With(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext returns the Recorder carried by ctx, or nil (the no-op
// sink) when none is registered.
func FromContext(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(ctxKey{}).(*Recorder)
	return rec
}
