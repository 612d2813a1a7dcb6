package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"octopocs/internal/faultinject"
	"octopocs/internal/telemetry"
)

// Store is a two-tier artifact store: a bounded in-memory hot tier holding
// decoded values over a checksummed, budget-bounded disk tier holding
// encoded payloads. It implements the service cache contract (Get/Put/Len)
// so it can sit behind the existing p1:/p2:/ps:/jr: keys unchanged.
type Store struct {
	dir     string
	version int
	codecs  map[string]Codec
	budget  int64
	faults  *faultinject.Injector
	log     *slog.Logger

	mu      sync.Mutex
	closed  bool
	hot     *hotLRU
	disk    map[string]*diskEntry // versioned key → entry
	lru     *list.List            // *diskEntry, front = most recently used
	bytes   int64
	lastErr time.Time // zero when the last write succeeded
	ctr     Counters
}

// diskEntry indexes one on-disk artifact file.
type diskEntry struct {
	vkey string
	path string
	size int64
	elem *list.Element
}

// Open creates or reopens the store rooted at opts.Dir, running the
// integrity scan over any entries a previous process left behind. Corrupt,
// torn, stale-version, and unknown-class files are deleted (and counted);
// everything else becomes immediately servable.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("artifact: open: empty directory")
	}
	s := &Store{
		dir:     opts.Dir,
		version: opts.Version,
		codecs:  opts.Codecs,
		budget:  opts.DiskBudget,
		faults:  opts.Faults,
		log:     opts.Logger,
		disk:    make(map[string]*diskEntry),
		lru:     list.New(),
	}
	if s.version == 0 {
		s.version = StoreVersion
	}
	if s.budget == 0 {
		s.budget = DefaultDiskBudget
	}
	if s.log == nil {
		s.log = telemetry.DiscardLogger()
	}
	hot := opts.HotEntries
	if hot == 0 {
		hot = DefaultHotEntries
	}
	if hot > 0 {
		s.hot = newHotLRU(hot)
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewMemory returns a store with no disk tier: every value lives only in a
// hot tier of at most hotEntries values (DefaultHotEntries when <= 0) and
// dies with the process. The memory-only service runs every artifact class
// and the journal on one of these.
func NewMemory(hotEntries int) *Store {
	if hotEntries <= 0 {
		hotEntries = DefaultHotEntries
	}
	return &Store{
		version: StoreVersion,
		log:     telemetry.DiscardLogger(),
		hot:     newHotLRU(hotEntries),
		disk:    make(map[string]*diskEntry),
		lru:     list.New(),
	}
}

// versionedKey stamps the store version into a caller key; this is the only
// form that ever addresses disk.
func (s *Store) versionedKey(key string) string {
	return fmt.Sprintf("v%d|%s", s.version, key)
}

// entryLocked returns the disk entry of a caller key, nil when absent. An
// empty disk tier (always, on a memory-only store) answers without
// formatting the versioned key, so hot-tier lookups stay allocation-free.
func (s *Store) entryLocked(key string) *diskEntry {
	if len(s.disk) == 0 {
		return nil
	}
	return s.disk[s.versionedKey(key)]
}

// codecFor returns the codec of a caller key's class (the prefix before the
// first ':'), or nil when the class is hot-tier-only.
func (s *Store) codecFor(key string) Codec {
	class, _, ok := strings.Cut(key, ":")
	if !ok {
		return nil
	}
	return s.codecs[class]
}

// Persists reports whether key's class has a codec, so that a Put of key
// reaches the disk tier; always false on a memory-only store.
func (s *Store) Persists(key string) bool { return s.codecFor(key) != nil }

// Get returns the artifact stored under key: from the hot tier when
// resident, otherwise verified, decoded, and promoted from disk. Any disk
// or decode failure drops the entry and degrades to a miss.
func (s *Store) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.ctr.Misses++
		return nil, false
	}
	if s.hot != nil {
		if v, ok := s.hot.get(key); ok {
			s.ctr.HotHits++
			if e := s.entryLocked(key); e != nil {
				s.touchLocked(e)
			}
			return v, true
		}
	}
	e := s.entryLocked(key)
	if e == nil {
		s.ctr.Misses++
		return nil, false
	}
	if s.faults.Fire(faultinject.ArtifactChecksum) {
		s.log.Warn("artifact: injected checksum mismatch", "key", key)
		s.dropLocked(e, &s.ctr.CorruptDropped)
		s.ctr.Misses++
		return nil, false
	}
	payload, err := readEntry(e.path, s.version, e.vkey)
	if err != nil {
		s.log.Warn("artifact: dropping unreadable entry", "key", key, "err", err)
		s.dropLocked(e, &s.ctr.CorruptDropped)
		s.ctr.Misses++
		return nil, false
	}
	codec := s.codecFor(key)
	if codec == nil {
		// The class lost its codec since the entry was indexed; cannot
		// decode, treat as stale.
		s.dropLocked(e, &s.ctr.StaleDropped)
		s.ctr.Misses++
		return nil, false
	}
	v, err := codec.Decode(payload)
	if err != nil {
		s.log.Warn("artifact: dropping undecodable entry", "key", key, "err", err)
		s.dropLocked(e, &s.ctr.DecodeErrors)
		s.ctr.Misses++
		return nil, false
	}
	s.ctr.DiskHits++
	s.touchLocked(e)
	if s.hot != nil {
		s.ctr.HotEvictions += s.hot.put(key, v)
	}
	return v, true
}

// Put stores an artifact under key in the hot tier and, when the key's
// class has a codec, persists it to disk. A key the disk tier already
// holds is never rewritten: every class's key is a content address of its
// value, so the entry already holds these bytes, and Put only refreshes
// its recency. Encode or write failures keep the hot copy and mark the
// store saturated; they never surface to the caller because a lost
// persist only costs a future recompute.
func (s *Store) Put(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.hot != nil {
		s.ctr.HotEvictions += s.hot.put(key, v)
	}
	codec := s.codecFor(key)
	if codec == nil {
		return
	}
	vkey := s.versionedKey(key)
	if e := s.disk[vkey]; e != nil {
		s.touchLocked(e)
		return
	}
	payload, err := codec.Encode(v)
	if err != nil {
		s.log.Warn("artifact: encode failed, entry stays memory-only", "key", key, "err", err)
		s.ctr.WriteErrors++
		return
	}
	s.writeLocked(key, vkey, payload)
}

// writeLocked persists one encoded payload under a key the disk tier does
// not hold and settles budget accounting.
func (s *Store) writeLocked(key, vkey string, payload []byte) {
	if int64(len(payload))+entryOverhead(vkey) > s.budget {
		s.ctr.WriteSkips++
		return
	}
	if s.faults.Fire(faultinject.ArtifactDiskFull) {
		s.log.Warn("artifact: injected disk-full, write dropped", "key", key)
		s.failWriteLocked()
		return
	}
	torn := s.faults.Fire(faultinject.ArtifactTornWrite)
	path := s.entryPath(vkey)
	size, err := writeEntry(path, s.version, vkey, payload, torn)
	if err != nil {
		s.log.Warn("artifact: disk write failed", "key", key, "err", err)
		s.failWriteLocked()
		return
	}
	if torn {
		s.log.Warn("artifact: injected torn write, entry is corrupt on disk", "key", key)
	}
	e := &diskEntry{vkey: vkey, path: path, size: size}
	e.elem = s.lru.PushFront(e)
	s.disk[vkey] = e
	s.bytes += size
	s.ctr.Writes++
	s.lastErr = time.Time{}
	s.evictLocked(e)
}

// failWriteLocked records a failed persist and opens the saturation window.
func (s *Store) failWriteLocked() {
	s.ctr.WriteErrors++
	s.lastErr = time.Now()
}

// evictLocked removes least-recently-used entries (sparing keep) until the
// disk tier fits its budget.
func (s *Store) evictLocked(keep *diskEntry) {
	for s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*diskEntry)
		if e == keep {
			return
		}
		s.dropLocked(e, &s.ctr.Evictions)
	}
}

// touchLocked marks e most recently used and refreshes its on-disk mtime so
// recency survives a restart (best-effort).
func (s *Store) touchLocked(e *diskEntry) {
	s.lru.MoveToFront(e.elem)
	touchFile(e.path)
}

// dropLocked removes e from the index and from disk, bumping counter.
func (s *Store) dropLocked(e *diskEntry, counter *uint64) {
	delete(s.disk, e.vkey)
	s.lru.Remove(e.elem)
	s.bytes -= e.size
	removeFile(e.path)
	*counter++
}

// Len reports the number of distinct keys resident in either tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.disk)
	if s.hot != nil {
		for _, k := range s.hot.keys() {
			if s.entryLocked(k) == nil {
				n++
			}
		}
	}
	return n
}

// Saturated reports whether the most recent disk write failed within the
// saturation hold window; admission control uses it to shed load before the
// queue does.
func (s *Store) Saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.lastErr.IsZero() && time.Since(s.lastErr) < DefaultSaturationHold
}

// Counters snapshots the store's accounting.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.ctr
	c.DiskBytes = s.bytes
	c.DiskEntries = len(s.disk)
	if s.hot != nil {
		c.HotEntries = s.hot.len()
	}
	return c
}

// Close marks the store closed; subsequent Gets miss and Puts drop. All
// writes are synchronous, so there is nothing to flush.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// hotLRU is the in-memory decoded-value tier.
type hotLRU struct {
	cap   int
	items map[string]*list.Element
	order *list.List // *hotItem, front = most recently used
}

type hotItem struct {
	key string
	val any
}

func newHotLRU(capacity int) *hotLRU {
	return &hotLRU{cap: capacity, items: make(map[string]*list.Element), order: list.New()}
}

func (h *hotLRU) get(key string) (any, bool) {
	el, ok := h.items[key]
	if !ok {
		return nil, false
	}
	h.order.MoveToFront(el)
	return el.Value.(*hotItem).val, true
}

// put inserts or refreshes key and returns how many entries were evicted.
func (h *hotLRU) put(key string, v any) uint64 {
	if el, ok := h.items[key]; ok {
		el.Value.(*hotItem).val = v
		h.order.MoveToFront(el)
		return 0
	}
	h.items[key] = h.order.PushFront(&hotItem{key: key, val: v})
	var evicted uint64
	for h.order.Len() > h.cap {
		back := h.order.Back()
		delete(h.items, back.Value.(*hotItem).key)
		h.order.Remove(back)
		evicted++
	}
	return evicted
}

func (h *hotLRU) len() int { return h.order.Len() }

func (h *hotLRU) keys() []string {
	out := make([]string, 0, len(h.items))
	for k := range h.items {
		out = append(out, k)
	}
	return out
}

// entryPath maps a versioned key to its file path: sha256 content address
// with a two-hex-digit fanout directory.
func (s *Store) entryPath(vkey string) string {
	sum := sha256.Sum256([]byte(vkey))
	name := hex.EncodeToString(sum[:])
	return s.dir + "/" + name[:2] + "/" + name + entryExt
}
