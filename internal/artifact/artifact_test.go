package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octopocs/internal/faultinject"
)

func injector(t *testing.T, schedule string) *faultinject.Injector {
	t.Helper()
	sch, err := faultinject.ParseSchedule(schedule)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", schedule, err)
	}
	return faultinject.New(sch)
}

// open opens a store over dir with a bytes codec for the jr class.
func open(t *testing.T, dir string, mod func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Codecs: map[string]Codec{"jr": BytesCodec{}}}
	if mod != nil {
		mod(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	s.Put("jr:abc", []byte("payload-1"))
	if v, ok := s.Get("jr:abc"); !ok || string(v.([]byte)) != "payload-1" {
		t.Fatalf("hot get = %v, %v", v, ok)
	}
	c := s.Counters()
	if c.HotHits != 1 || c.Writes != 1 {
		t.Fatalf("counters after hot hit: %+v", c)
	}
	s.Close()

	// A fresh store over the same directory serves the entry from disk.
	s2 := open(t, dir, nil)
	v, ok := s2.Get("jr:abc")
	if !ok || string(v.([]byte)) != "payload-1" {
		t.Fatalf("warm get = %v, %v", v, ok)
	}
	c = s2.Counters()
	if c.DiskHits != 1 || c.CorruptDropped != 0 {
		t.Fatalf("counters after warm get: %+v", c)
	}
	// Promoted to hot: second get must be a hot hit.
	if _, ok := s2.Get("jr:abc"); !ok {
		t.Fatal("promoted get missed")
	}
	if c = s2.Counters(); c.HotHits != 1 {
		t.Fatalf("promotion did not reach hot tier: %+v", c)
	}
}

func TestUnknownClassStaysMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	s.Put("zz:1", []byte("x"))
	if _, ok := s.Get("zz:1"); !ok {
		t.Fatal("hot get missed")
	}
	if c := s.Counters(); c.DiskEntries != 0 || c.Writes != 0 {
		t.Fatalf("unexpected disk activity: %+v", c)
	}
	s.Close()
	if _, ok := open(t, dir, nil).Get("zz:1"); ok {
		t.Fatal("memory-only entry survived restart")
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	s.Put("jr:v", []byte("old"))
	s.Close()
	s2 := open(t, dir, func(o *Options) { o.Version = StoreVersion + 1 })
	if _, ok := s2.Get("jr:v"); ok {
		t.Fatal("stale-version entry served")
	}
	if c := s2.Counters(); c.StaleDropped != 1 {
		t.Fatalf("stale entry not dropped at scan: %+v", c)
	}
}

// artFiles lists the .art files under dir.
func artFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, entryExt) {
			out = append(out, p)
		}
		return nil
	})
	return out
}

func TestScanDropsCorruptKeepsGood(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	s.Put("jr:good", []byte("keep me"))
	s.Put("jr:bad", []byte("corrupt me"))
	s.Close()

	// Flip a payload byte in one entry; its checksum no longer matches.
	var victim string
	for _, p := range artFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "corrupt me") {
			data[len(data)-entrySum-1] ^= 0xff
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			victim = p
		}
	}
	if victim == "" {
		t.Fatal("victim entry not found on disk")
	}

	s2 := open(t, dir, nil)
	if c := s2.Counters(); c.CorruptDropped != 1 || c.DiskEntries != 1 {
		t.Fatalf("scan counters: %+v", c)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not deleted: %v", err)
	}
	if v, ok := s2.Get("jr:good"); !ok || string(v.([]byte)) != "keep me" {
		t.Fatal("good entry lost")
	}
	if _, ok := s2.Get("jr:bad"); ok {
		t.Fatal("corrupt entry served")
	}
}

func TestScanRemovesLeftoverTemp(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, "deadbeef"+entryExt+tmpExt)
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	open(t, dir, nil)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived scan: %v", err)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := strings.Repeat("x", 256)
	s := open(t, dir, func(o *Options) {
		o.DiskBudget = 3 * (256 + entryOverhead("v1|jr:0"))
		o.HotEntries = -1 // force disk reads so recency is observable
	})
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("jr:%d", i), []byte(payload))
	}
	// Touch jr:0 so jr:1 is now least recently used.
	if _, ok := s.Get("jr:0"); !ok {
		t.Fatal("get jr:0 missed")
	}
	s.Put("jr:3", []byte(payload))
	c := s.Counters()
	if c.Evictions != 1 || c.DiskEntries != 3 {
		t.Fatalf("eviction counters: %+v", c)
	}
	if _, ok := s.Get("jr:1"); ok {
		t.Fatal("LRU entry jr:1 survived eviction")
	}
	for _, k := range []string{"jr:0", "jr:2", "jr:3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
	if c = s.Counters(); c.DiskBytes > s.budget {
		t.Fatalf("disk bytes %d exceed budget %d", c.DiskBytes, s.budget)
	}
}

func TestOversizedValueSkipsDisk(t *testing.T) {
	s := open(t, t.TempDir(), func(o *Options) { o.DiskBudget = 64 })
	s.Put("jr:big", []byte(strings.Repeat("x", 1024)))
	if c := s.Counters(); c.WriteSkips != 1 || c.Writes != 0 {
		t.Fatalf("oversized write not skipped: %+v", c)
	}
	if _, ok := s.Get("jr:big"); !ok {
		t.Fatal("oversized value lost from hot tier")
	}
}

func TestInjectedDiskFullSaturates(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(o *Options) {
		o.Faults = injector(t, "artifact.disk_full")
	})
	s.Put("jr:k", []byte("v"))
	if !s.Saturated() {
		t.Fatal("store not saturated after failed write")
	}
	c := s.Counters()
	if c.WriteErrors != 1 || c.Writes != 0 || c.DiskEntries != 0 {
		t.Fatalf("disk-full counters: %+v", c)
	}
	// The hot tier still serves the value: degradation, not data loss.
	if v, ok := s.Get("jr:k"); !ok || string(v.([]byte)) != "v" {
		t.Fatal("hot tier lost value under disk-full")
	}
	s.Close()
	if _, ok := open(t, dir, nil).Get("jr:k"); ok {
		t.Fatal("dropped write appeared on disk")
	}
}

func TestSaturationClearsOnSuccess(t *testing.T) {
	s := open(t, t.TempDir(), func(o *Options) {
		o.Faults = injector(t, "artifact.disk_full:nth=1")
	})
	s.Put("jr:a", []byte("v"))
	if !s.Saturated() {
		t.Fatal("not saturated after failure")
	}
	s.Put("jr:b", []byte("v"))
	if s.Saturated() {
		t.Fatal("still saturated after a successful write")
	}
}

func TestTornWriteDroppedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(o *Options) {
		o.Faults = injector(t, "artifact.torn_write")
	})
	s.Put("jr:torn", []byte("half of this payload will be missing"))
	// In-process, the hot tier masks the torn file entirely.
	if _, ok := s.Get("jr:torn"); !ok {
		t.Fatal("hot tier lost value under torn write")
	}
	s.Close()
	// After the "crash", the scan must detect and drop the torn entry.
	s2 := open(t, dir, nil)
	if c := s2.Counters(); c.CorruptDropped != 1 {
		t.Fatalf("torn entry not dropped at scan: %+v", c)
	}
	if _, ok := s2.Get("jr:torn"); ok {
		t.Fatal("torn entry served after reopen")
	}
	if files := artFiles(t, dir); len(files) != 0 {
		t.Fatalf("torn file left on disk: %v", files)
	}
}

// TestPutHeldKeyWritesNothing re-puts a key the disk tier holds, in the
// same process and after a reopen: neither writes, the entry's bytes stay
// as first written, and a disk read still serves it.
func TestPutHeldKeyWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	s.Put("jr:k", []byte("payload"))
	files := artFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("entry files = %v, want 1", files)
	}
	before, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Put("jr:k", []byte("payload"))
	if c := s.Counters(); c.Writes != 1 || c.DiskEntries != 1 {
		t.Fatalf("re-put of a held key wrote: %+v", c)
	}
	s.Close()

	s2 := open(t, dir, func(o *Options) { o.HotEntries = -1 })
	s2.Put("jr:k", []byte("payload"))
	if c := s2.Counters(); c.Writes != 0 || c.DiskEntries != 1 {
		t.Fatalf("re-put after reopen wrote: %+v", c)
	}
	after, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("re-put changed the entry's bytes")
	}
	if v, ok := s2.Get("jr:k"); !ok || string(v.([]byte)) != "payload" {
		t.Fatalf("held entry not servable: %v, %v", v, ok)
	}
	if c := s2.Counters(); c.DiskHits != 1 {
		t.Fatalf("held entry not read from disk: %+v", c)
	}
}

// TestTornEntryRewrittenAfterDrop tears the first write of a key: Put does
// not rewrite the held (torn) entry, the first disk read drops it, and the
// next Put writes it again, whole.
func TestTornEntryRewrittenAfterDrop(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(o *Options) {
		o.Faults = injector(t, "artifact.torn_write:nth=1")
		o.HotEntries = -1 // serve every Get from disk
	})
	payload := []byte("half of this payload will be missing")
	s.Put("jr:torn", payload)
	s.Put("jr:torn", payload)
	if c := s.Counters(); c.Writes != 1 {
		t.Fatalf("held torn entry rewritten before it was read: %+v", c)
	}
	if _, ok := s.Get("jr:torn"); ok {
		t.Fatal("torn entry served")
	}
	if c := s.Counters(); c.CorruptDropped != 1 || c.DiskEntries != 0 {
		t.Fatalf("torn entry not dropped on read: %+v", c)
	}
	s.Put("jr:torn", payload)
	if c := s.Counters(); c.Writes != 2 || c.DiskEntries != 1 {
		t.Fatalf("dropped entry not rewritten: %+v", c)
	}
	if v, ok := s.Get("jr:torn"); !ok || string(v.([]byte)) != string(payload) {
		t.Fatalf("rewritten entry = %q, %v", v, ok)
	}
}

func TestInjectedChecksumMismatchDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	s.Put("jr:k", []byte("v"))
	s.Close()
	s2 := open(t, dir, func(o *Options) {
		o.Faults = injector(t, "artifact.checksum")
	})
	if _, ok := s2.Get("jr:k"); ok {
		t.Fatal("checksum-faulted read served")
	}
	if c := s2.Counters(); c.CorruptDropped != 1 || c.Misses != 1 {
		t.Fatalf("checksum-fault counters: %+v", c)
	}
}

func TestDecodeErrorDropsEntry(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, nil)
	s.Put("jr:k", []byte("v"))
	s.Close()
	// Reopen with a codec that rejects every payload.
	s2 := open(t, dir, func(o *Options) {
		o.Codecs = map[string]Codec{"jr": failCodec{}}
	})
	if _, ok := s2.Get("jr:k"); ok {
		t.Fatal("undecodable entry served")
	}
	if c := s2.Counters(); c.DecodeErrors != 1 || c.DiskEntries != 0 {
		t.Fatalf("decode-error counters: %+v", c)
	}
}

type failCodec struct{}

func (failCodec) Encode(any) ([]byte, error) { return nil, fmt.Errorf("nope") }
func (failCodec) Decode([]byte) (any, error) { return nil, fmt.Errorf("nope") }

func TestLenCountsBothTiers(t *testing.T) {
	s := open(t, t.TempDir(), nil)
	s.Put("jr:disk", []byte("v")) // hot + disk
	s.Put("zz:mem", []byte("v"))  // hot only
	if n := s.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

func TestClosedStoreDegrades(t *testing.T) {
	s := open(t, t.TempDir(), nil)
	s.Put("jr:k", []byte("v"))
	s.Close()
	if _, ok := s.Get("jr:k"); ok {
		t.Fatal("closed store served a value")
	}
	s.Put("jr:late", []byte("v"))
	if c := s.Counters(); c.Writes != 1 {
		t.Fatalf("closed store accepted a write: %+v", c)
	}
}

func TestHotEvictionBounded(t *testing.T) {
	s := open(t, t.TempDir(), func(o *Options) { o.HotEntries = 2 })
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("zz:%d", i), i)
	}
	c := s.Counters()
	if c.HotEntries != 2 || c.HotEvictions != 3 {
		t.Fatalf("hot tier counters: %+v", c)
	}

	// Lookups on a store with no disk tier allocate nothing, hit or miss.
	m := NewMemory(2)
	m.Put("a", 1)
	if a := testing.AllocsPerRun(100, func() { m.Get("a"); m.Get("b") }); a != 0 {
		t.Errorf("memory-only hit and miss allocate %.1f times, want 0", a)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted empty dir")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), func(o *Options) { o.HotEntries = 8 })
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("jr:%d", i%10)
				s.Put(key, []byte(fmt.Sprintf("v%d", g)))
				s.Get(key)
				s.Len()
				s.Counters()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c := s.Counters(); c.HotEntries > 8 {
		t.Errorf("hot tier holds %d entries, capacity 8", c.HotEntries)
	}
}
