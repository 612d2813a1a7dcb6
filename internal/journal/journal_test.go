package journal

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestEmitAndEvents(t *testing.T) {
	r := New("job-1", Options{})
	if got := r.ID(); got != "job-1" {
		t.Fatalf("ID = %q", got)
	}
	s1 := r.Emit(EvJobStart, Attrs{"pair": "demo"})
	s2 := r.Emit(EvP1Done, Attrs{"bunches": 3})
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d, %d", s1, s2)
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Type != EvJobStart || evs[1].Type != EvP1Done {
		t.Fatalf("events = %+v", evs)
	}
	if !evs[0].Det {
		t.Fatalf("job.start should be classified deterministic")
	}
	if got := r.EventsAfter(1); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("EventsAfter(1) = %+v", got)
	}
	if got := r.EventsAfter(2); got != nil {
		t.Fatalf("EventsAfter(2) = %+v", got)
	}
}

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	if r.Emit(EvJobStart, nil) != 0 || r.EmitFinal(EvVerdict, nil) != 0 {
		t.Fatalf("nil recorder must return seq 0")
	}
	if r.Verbose() || r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil || r.ID() != "" || r.Closed() {
		t.Fatalf("nil recorder leaked state")
	}
	select {
	case <-r.Updated():
	default:
		t.Fatalf("nil recorder Updated must be closed")
	}
	r.Close() // must not panic
}

func TestVerbosityFilter(t *testing.T) {
	r := New("j", Options{})
	if r.Verbose() {
		t.Fatalf("summary recorder reports Verbose")
	}
	if seq := r.Emit(EvSymexFork, Attrs{"worker": 1}); seq != 0 {
		t.Fatalf("verbose event retained at summary verbosity (seq %d)", seq)
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d", r.Len())
	}
	v := New("j", Options{Verbosity: VerbVerbose})
	if !v.Verbose() {
		t.Fatalf("verbose recorder reports !Verbose")
	}
	if seq := v.Emit(EvSymexFork, Attrs{"worker": 1}); seq == 0 {
		t.Fatalf("verbose event dropped at verbose verbosity")
	}
}

func TestCapacityDropsNewestKeepsFinal(t *testing.T) {
	r := New("j", Options{Capacity: 3})
	for i := 0; i < 10; i++ {
		r.Emit(EvP1Done, Attrs{"i": i})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if r.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", r.Dropped())
	}
	// The causal prefix survives: the first three events.
	for i, ev := range r.Events() {
		if got := ev.Attrs["i"].(int); got != i {
			t.Fatalf("event %d has i=%d", i, got)
		}
	}
	// The final event bypasses the bound and links the retained evidence.
	seq := r.EmitFinal(EvVerdict, Attrs{"verdict": "triggered"})
	if seq != 11 {
		t.Fatalf("final seq = %d, want 11 (drops consume seqs)", seq)
	}
	evs := r.Events()
	last := evs[len(evs)-1]
	if last.Type != EvVerdict {
		t.Fatalf("final not retained: %+v", last)
	}
	ev, ok := last.Attrs["evidence"].([]uint64)
	if !ok || len(ev) != 3 || ev[0] != 1 || ev[2] != 3 {
		t.Fatalf("evidence = %#v", last.Attrs["evidence"])
	}
}

func TestUnboundedCapacity(t *testing.T) {
	r := New("j", Options{Capacity: -1})
	for i := 0; i < 2*DefaultCapacity; i++ {
		r.Emit(EvP1Done, nil)
	}
	if r.Len() != 2*DefaultCapacity || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
}

func TestCloseStopsEmission(t *testing.T) {
	r := New("j", Options{})
	r.Emit(EvJobStart, nil)
	r.Close()
	if !r.Closed() {
		t.Fatalf("not closed")
	}
	if r.Emit(EvP1Done, nil) != 0 || r.EmitFinal(EvVerdict, nil) != 0 {
		t.Fatalf("emission after Close recorded")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	select {
	case <-r.Updated():
	default:
		t.Fatalf("Updated on closed recorder must be closed")
	}
}

func TestUpdatedWakesOnAppendAndClose(t *testing.T) {
	r := New("j", Options{})
	ch := r.Updated()
	select {
	case <-ch:
		t.Fatalf("premature wakeup")
	default:
	}
	r.Emit(EvJobStart, nil)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatalf("no wakeup on append")
	}
	ch = r.Updated()
	r.Close()
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatalf("no wakeup on close")
	}
}

// TestConcurrentEmission hammers one Recorder from many goroutines under
// -race: seqs must stay unique and monotonic, and the final event must
// land exactly once with a consistent evidence set.
func TestConcurrentEmission(t *testing.T) {
	r := New("j", Options{Capacity: -1, Verbosity: VerbVerbose})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(EvSymexFork, Attrs{"worker": w, "i": i})
				if i%10 == 0 {
					ch := r.Updated()
					_ = r.EventsAfter(uint64(i))
					select {
					case <-ch:
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	r.EmitFinal(EvVerdict, Attrs{"verdict": "triggered"})
	r.Close()
	evs := r.Events()
	if len(evs) != workers*per+1 {
		t.Fatalf("len = %d", len(evs))
	}
	var prev uint64
	for _, ev := range evs {
		if ev.Seq <= prev {
			t.Fatalf("seq %d not increasing after %d", ev.Seq, prev)
		}
		prev = ev.Seq
	}
}

func TestRegistryCoversTypes(t *testing.T) {
	for _, typ := range Types() {
		spec, ok := SpecOf(typ)
		if !ok {
			t.Fatalf("SpecOf(%s) missing", typ)
		}
		if spec.Phase == "" || spec.Doc == "" {
			t.Fatalf("%s: incomplete spec %+v", typ, spec)
		}
	}
	if _, ok := SpecOf(Type("no.such")); ok {
		t.Fatalf("unknown type resolved")
	}
}

func TestEncodeDecodeRenderRoundTrip(t *testing.T) {
	r := New("j", Options{})
	r.Emit(EvJobStart, Attrs{"pair": "demo"})
	r.Emit(EvP1Done, Attrs{"bunches": 3, "cached": false})
	r.Emit(EvSymexDone, Attrs{"kind": "crashed", "path": "0.1.0", "steps": uint64(42)})
	r.Emit(EvSymexStats, Attrs{"forks": 9})
	r.EmitFinal(EvVerdict, Attrs{"verdict": "triggered", "type": "Type-I", "reason": ""})
	live := Render(r.Events(), RenderOptions{})

	data, err := MarshalJSONL(r.Events())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeJSONL(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := Render(decoded, RenderOptions{}); got != live {
		t.Fatalf("decoded rendering differs:\nlive:\n%s\ndecoded:\n%s", live, got)
	}
	// The nondeterministic stats event is excluded from the default
	// rendering but present under All.
	if gotAll := Render(decoded, RenderOptions{All: true}); gotAll == live {
		t.Fatalf("All rendering should include symex.stats")
	}
	if want := "verdict: triggered (Type-I)\n"; !endsWith(live, want) {
		t.Fatalf("rendering does not close with verdict line:\n%s", live)
	}
}

func TestRenderError(t *testing.T) {
	r := New("j", Options{})
	r.Emit(EvJobStart, Attrs{"pair": "demo"})
	r.EmitFinal(EvJobError, Attrs{"err": "boom"})
	out := Render(r.Events(), RenderOptions{})
	if !endsWith(out, "error: boom\n") {
		t.Fatalf("rendering = %q", out)
	}
}

func TestKeyIsContentAddressed(t *testing.T) {
	a := Key([]byte("x"))
	b := Key([]byte("x"))
	c := Key([]byte("y"))
	if a != b || a == c {
		t.Fatalf("keys: %s %s %s", a, b, c)
	}
	if len(a) != len("jr:")+64 || a[:3] != "jr:" {
		t.Fatalf("key shape: %s", a)
	}
}

// TestKeyReproducible records the same events twice, apart in time: the
// encoded journals, and so their keys, must be identical.
func TestKeyReproducible(t *testing.T) {
	record := func() []byte {
		r := New("job", Options{})
		r.Emit(EvJobStart, Attrs{"pair": "demo"})
		r.Emit(EvP1Done, Attrs{"bunches": 2, "cached": true})
		r.EmitFinal(EvVerdict, Attrs{"verdict": "triggered", "type": "Type-I"})
		data, err := MarshalJSONL(r.Events())
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return data
	}
	a := record()
	time.Sleep(2 * time.Millisecond)
	b := record()
	if string(a) != string(b) || Key(a) != Key(b) {
		t.Fatalf("identical runs encode differently:\n%s\n%s", a, b)
	}
}

func TestDecodeJSONLTolerant(t *testing.T) {
	evs, err := DecodeJSONL([]byte("\n\n{\"seq\":1,\"type\":\"p1.done\"}\n\n"))
	if err != nil || len(evs) != 1 || evs[0].Type != EvP1Done {
		t.Fatalf("evs=%+v err=%v", evs, err)
	}
	// Journals persisted with the former wall-clock "tus" field decode.
	evs, err = DecodeJSONL([]byte(`{"seq":1,"tus":1700000000000000,"type":"p1.done","det":true}` + "\n"))
	if err != nil || len(evs) != 1 || evs[0].Seq != 1 || !evs[0].Det {
		t.Fatalf("legacy line: evs=%+v err=%v", evs, err)
	}
	if _, err := DecodeJSONL([]byte("{not json}")); err == nil {
		t.Fatalf("malformed line accepted")
	}
}

func endsWith(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

func BenchmarkEmit(b *testing.B) {
	r := New("j", Options{Capacity: -1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(EvP1Done, Attrs{"i": i})
	}
}

func BenchmarkEmitNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(EvP1Done, nil)
	}
}

func ExampleRender() {
	r := New("job-1", Options{})
	r.Emit(EvJobStart, Attrs{"pair": "demo"})
	r.Emit(EvP1Done, Attrs{"bunches": 2})
	r.EmitFinal(EvVerdict, Attrs{"verdict": "triggered", "type": "Type-I"})
	fmt.Print(Render(r.Events(), RenderOptions{}))
	// Output:
	// job:
	//   job.start              pair=demo
	// p1:
	//   p1.done                bunches=2
	// verdict: triggered (Type-I)
}
