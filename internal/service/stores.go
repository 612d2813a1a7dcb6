package service

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"

	"octopocs/internal/artifact"
	"octopocs/internal/clonedet"
	"octopocs/internal/core"
	"octopocs/internal/faultinject"
	"octopocs/internal/journal"
)

// storeClass is one row of the store table: a store's name (its
// subdirectory and its class label in Stats and /metrics), its share of the
// total disk budget, and the codecs of the key prefixes it holds.
type storeClass struct {
	name   string
	share  float64
	codecs map[string]artifact.Codec
}

// storeClasses is the store table every bundle is built from. P2 artifacts
// dominate (program text plus observed edges, two per target and prune
// mode) and share their store with the static analyses, P1 artifacts carry
// PoC-sized bunches, journals are bounded JSONL, fingerprints are small
// hash sets, absint value ranges are program-text-sized rebuild-on-decode
// payloads, and hybrid outcomes are poc'-sized JSON.
var storeClasses = []storeClass{
	{core.ClassP1, 0.20, map[string]artifact.Codec{core.ClassP1: core.P1Codec{}}},
	{core.ClassP2, 0.36, map[string]artifact.Codec{core.ClassP2: core.P2Codec{}, core.ClassStatic: core.StaticCodec{}}},
	{journal.KeyClass, 0.18, map[string]artifact.Codec{journal.KeyClass: artifact.BytesCodec{}}},
	{clonedet.KeyClass, 0.12, map[string]artifact.Codec{clonedet.KeyClass: clonedet.FingerprintCodec{}}},
	{core.ClassAbsint, 0.08, map[string]artifact.Codec{core.ClassAbsint: core.AbsintCodec{}}},
	{core.ClassHybrid, 0.06, map[string]artifact.Codec{core.ClassHybrid: core.HybridCodec{}}},
}

// StoreOptions parameterizes OpenStores.
type StoreOptions struct {
	// Dir is the root store directory; one subdirectory per store class
	// (p1, p2, jr, ci, ai, hy) is created under it.
	Dir string
	// DiskBudget bounds total disk use in bytes across all classes,
	// apportioned by the store table's shares; artifact.DefaultDiskBudget
	// when 0.
	DiskBudget int64
	// Faults threads the deterministic fault injector into every store.
	Faults *faultinject.Injector
	// Logger receives integrity-scan and I/O warnings; nil discards them.
	Logger *slog.Logger
}

// Stores bundles one artifact store per store class: P1 crash-primitive
// artifacts, P2/static preparation artifacts, finished-job journals,
// clone-detection fingerprints, absint value ranges and hybrid-campaign
// outcomes. OpenStores opens a persistent bundle: hand it to Config.Stores,
// and Close it after Shutdown — the caller owns the lifecycle, because a
// Stores may outlive any one Service (that is the point: warm restarts).
// Without one, the service builds a memory-only bundle from the same table.
type Stores struct {
	stores []*artifact.Store // one per storeClasses row, in table order
}

// OpenStores opens (or creates) one store per store class under opts.Dir,
// running each store's startup integrity scan. Entries persisted by an
// earlier process of the same store version become immediately servable.
func OpenStores(opts StoreOptions) (*Stores, error) {
	if opts.Dir == "" {
		return nil, errors.New("service: store directory is required")
	}
	budget := opts.DiskBudget
	if budget == 0 {
		budget = artifact.DefaultDiskBudget
	}
	st := &Stores{}
	for _, c := range storeClasses {
		s, err := artifact.Open(artifact.Options{
			Dir:        filepath.Join(opts.Dir, c.name),
			DiskBudget: int64(float64(budget) * c.share),
			Codecs:     c.codecs,
			Faults:     opts.Faults,
			Logger:     opts.Logger,
		})
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("service: open stores: %w", err)
		}
		st.stores = append(st.stores, s)
	}
	return st, nil
}

// memoryStores builds a memory-only bundle: one artifact.NewMemory(entries)
// per store class.
func memoryStores(entries int) *Stores {
	st := &Stores{stores: make([]*artifact.Store, len(storeClasses))}
	for i := range storeClasses {
		st.stores[i] = artifact.NewMemory(entries)
	}
	return st
}

// cache returns the store holding keys of the given class prefix; nil (not
// cached) on a nil bundle or an unknown prefix.
func (st *Stores) cache(prefix string) core.Cache {
	if st == nil {
		return nil
	}
	for i, c := range storeClasses {
		if _, ok := c.codecs[prefix]; ok {
			return st.stores[i]
		}
	}
	return nil
}

// Close closes every store. Safe on a partially opened bundle.
func (st *Stores) Close() error {
	if st == nil {
		return nil
	}
	for _, s := range st.stores {
		s.Close()
	}
	return nil
}

// Saturated reports whether any store's disk tier recently failed a write;
// admission control answers 429 while it holds.
func (st *Stores) Saturated() bool {
	if st == nil {
		return false
	}
	for _, s := range st.stores {
		if s.Saturated() {
			return true
		}
	}
	return false
}

// Counters snapshots every store's accounting, keyed by class.
func (st *Stores) Counters() map[string]artifact.Counters {
	if st == nil {
		return nil
	}
	out := make(map[string]artifact.Counters, len(st.stores))
	for i, s := range st.stores {
		out[storeClasses[i].name] = s.Counters()
	}
	return out
}
