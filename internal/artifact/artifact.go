// Package artifact is the persistent, tiered phase-artifact store behind
// the verification service: a bounded in-memory hot tier over a
// content-addressed, atomic-rename disk tier. It persists the expensive
// intermediate results of the pipeline — P1 crash-primitive bunches
// (S-side), P2 CFG/distance preparation (T-side), the pre-P2 static
// analyses, clone-detection fingerprints, and finished-job provenance
// journals — so a restarted node resumes warm instead of recomputing every
// artifact that P1–P4 already paid for.
//
// Soundness rests on the key discipline: callers address artifacts by
// content-derived keys that cover every input the artifact depends on, and
// the store additionally stamps its format version into every key before it
// touches disk. A format change therefore can never resurrect a
// stale verdict-bearing artifact — old entries simply stop matching and age
// out. Every disk entry carries a header and a SHA-256 checksum; writes go
// to a temp file, fsync, then rename, and the startup integrity scan drops
// any entry that is torn, truncated, corrupt, or from a different store
// version. A failed or corrupt read degrades to a miss (recompute — slower,
// never different), mirroring the cache-fault contract of the core
// pipeline.
//
// Concurrency: a Store is safe for concurrent Get/Put/Len/Counters from any
// number of goroutines; one mutex guards the hot tier, the disk index, and
// disk I/O, which is acceptable because artifact reads and writes are tiny
// compared to the verifications they save. Close is safe concurrently with
// readers; operations on a closed store degrade to misses and dropped
// writes.
package artifact

import (
	"fmt"
	"log/slog"
	"time"

	"octopocs/internal/faultinject"
)

// StoreVersion is the on-disk format version. It participates in every
// versioned key and in every entry header, so bumping it atomically
// invalidates all previously persisted artifacts (they are dropped by the
// startup integrity scan, never returned).
const StoreVersion = 1

// Defaults.
const (
	// DefaultHotEntries bounds the in-memory hot tier.
	DefaultHotEntries = 512
	// DefaultDiskBudget is the per-store disk budget in bytes.
	DefaultDiskBudget int64 = 256 << 20
	// DefaultSaturationHold is how long after a failed disk write the
	// store keeps reporting Saturated, giving admission control a window
	// to shed load while the volume recovers.
	DefaultSaturationHold = 5 * time.Second
)

// Codec turns one artifact class into a self-contained byte payload and
// back. Implementations must be safe for concurrent use. A Decode error is
// not fatal: the store treats the entry as corrupt, drops it, and reports a
// miss.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// BytesCodec is the pass-through codec for artifact classes whose values
// are already []byte (persisted journals).
type BytesCodec struct{}

// Encode passes raw bytes through.
func (BytesCodec) Encode(v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("artifact: bytes codec: unexpected value type %T", v)
	}
	return b, nil
}

// Decode passes raw bytes through.
func (BytesCodec) Decode(data []byte) (any, error) { return data, nil }

// Options parameterizes Open.
type Options struct {
	// Dir is the store directory; created if absent. Each Store owns its
	// directory exclusively.
	Dir string
	// HotEntries bounds the in-memory hot tier; DefaultHotEntries when 0,
	// negative disables the hot tier (every hit decodes from disk).
	HotEntries int
	// DiskBudget bounds the bytes the disk tier may hold; DefaultDiskBudget
	// when 0. Least-recently-accessed entries are evicted to stay under it.
	DiskBudget int64
	// Codecs maps a key class — the prefix before the first ':' — to its
	// payload codec. Keys of classes without a codec live in the hot tier
	// only and never touch disk.
	Codecs map[string]Codec
	// Version overrides the key/format version; StoreVersion when 0.
	Version int
	// Faults is the optional deterministic fault injector (disk-full,
	// torn-write, checksum-mismatch points). Nil never fires.
	Faults *faultinject.Injector
	// Logger receives integrity-scan and I/O warnings; nil discards them.
	Logger *slog.Logger
}

// Counters is a point-in-time snapshot of the store's accounting.
type Counters struct {
	// HotHits/DiskHits/Misses classify Get outcomes; a disk hit paid a
	// read, checksum verification, and a codec decode.
	HotHits  uint64 `json:"hot_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// Writes counts successful disk persists; WriteErrors counts failed
	// ones (each marks the store saturated for DefaultSaturationHold);
	// WriteSkips counts values larger than the whole disk budget.
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	WriteSkips  uint64 `json:"write_skips"`
	// Evictions counts disk entries removed by the byte budget;
	// HotEvictions counts hot-tier LRU evictions.
	Evictions    uint64 `json:"evictions"`
	HotEvictions uint64 `json:"hot_evictions"`
	// CorruptDropped counts entries dropped for failing the header or
	// checksum validation (at startup scan or read time); StaleDropped
	// counts entries dropped for carrying a different store version or an
	// unknown class; DecodeErrors counts entries whose payload the codec
	// rejected.
	CorruptDropped uint64 `json:"corrupt_dropped"`
	StaleDropped   uint64 `json:"stale_dropped"`
	DecodeErrors   uint64 `json:"decode_errors"`
	// Tier occupancy.
	DiskBytes   int64 `json:"disk_bytes"`
	DiskEntries int   `json:"disk_entries"`
	HotEntries  int   `json:"hot_entries"`
}

// Hits is the total Get hits across tiers.
func (c Counters) Hits() uint64 { return c.HotHits + c.DiskHits }
