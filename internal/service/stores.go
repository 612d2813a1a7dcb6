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
)

// Per-class shares of the total disk budget. P2 artifacts dominate (program
// text plus observed edges, two per target and prune mode), P1 artifacts
// carry PoC-sized bunches, journals are bounded JSONL, fingerprints are
// small hash sets, absint value ranges are program-text-sized
// rebuild-on-decode payloads, and hybrid outcomes are poc'-sized JSON.
const (
	storeShareP1      = 0.20
	storeShareP2      = 0.36
	storeShareJournal = 0.18
	storeShareClone   = 0.12
	storeShareAbsint  = 0.08
	storeShareHybrid  = 0.06
)

// StoreOptions parameterizes OpenStores.
type StoreOptions struct {
	// Dir is the root store directory; one subdirectory per artifact class
	// (p1, p2, jr, ci, ai, hy) is created under it.
	Dir string
	// HotEntries sizes each class's in-memory hot tier;
	// artifact.DefaultHotEntries when 0.
	HotEntries int
	// DiskBudget bounds total disk use in bytes across all classes,
	// apportioned by the storeShare fractions; artifact.DefaultDiskBudget
	// when 0.
	DiskBudget int64
	// Faults threads the deterministic fault injector into every store.
	Faults *faultinject.Injector
	// Logger receives integrity-scan and I/O warnings; nil discards them.
	Logger *slog.Logger
}

// Stores bundles the per-class persistent artifact stores the service
// runs on: P1 crash-primitive artifacts, P2/static preparation artifacts,
// finished-job journals, and clone-detection fingerprints. Open with
// OpenStores, hand to Config.Stores, and Close after Shutdown — the caller
// owns the lifecycle, because a Stores may outlive any one Service (that is
// the point: warm restarts).
type Stores struct {
	// Dir is the root directory the stores live under.
	Dir string
	// P1 persists p1: artifacts; P2 persists p2: and ps: artifacts; Journal
	// persists jr: JSONL journals; Clone persists ci: fingerprints; AI
	// persists ai: abstract-interpretation value ranges; HY persists hy:
	// hybrid-campaign outcomes.
	P1, P2, Journal, Clone, AI, HY *artifact.Store
}

// OpenStores opens (or creates) the four per-class stores under opts.Dir,
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
	st := &Stores{Dir: opts.Dir}
	open := func(sub string, share float64, codecs map[string]artifact.Codec) (*artifact.Store, error) {
		return artifact.Open(artifact.Options{
			Dir:        filepath.Join(opts.Dir, sub),
			HotEntries: opts.HotEntries,
			DiskBudget: int64(float64(budget) * share),
			Codecs:     codecs,
			Faults:     opts.Faults,
			Logger:     opts.Logger,
		})
	}
	var err error
	if st.P1, err = open("p1", storeShareP1, map[string]artifact.Codec{
		"p1": core.P1Codec{},
	}); err == nil {
		if st.P2, err = open("p2", storeShareP2, map[string]artifact.Codec{
			"p2": core.P2Codec{},
			"ps": core.StaticCodec{},
		}); err == nil {
			if st.Journal, err = open("jr", storeShareJournal, map[string]artifact.Codec{
				"jr": artifact.BytesCodec{},
			}); err == nil {
				if st.Clone, err = open("ci", storeShareClone, map[string]artifact.Codec{
					"ci": clonedet.FingerprintCodec{},
				}); err == nil {
					if st.AI, err = open("ai", storeShareAbsint, map[string]artifact.Codec{
						"ai": core.AbsintCodec{},
					}); err == nil {
						st.HY, err = open("hy", storeShareHybrid, map[string]artifact.Codec{
							"hy": core.HybridCodec{},
						})
					}
				}
			}
		}
	}
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("service: open stores: %w", err)
	}
	return st, nil
}

// each visits the non-nil stores with their class names.
func (st *Stores) each(fn func(class string, s *artifact.Store)) {
	for _, c := range []struct {
		name  string
		store *artifact.Store
	}{
		{"p1", st.P1}, {"p2", st.P2}, {"jr", st.Journal}, {"ci", st.Clone}, {"ai", st.AI}, {"hy", st.HY},
	} {
		if c.store != nil {
			fn(c.name, c.store)
		}
	}
}

// pipelineStores maps each pipeline artifact class (core.Classes) to the
// store persisting it; static analyses share the P2 store. Nil on a nil
// bundle.
func (st *Stores) pipelineStores() map[string]*artifact.Store {
	if st == nil {
		return nil
	}
	return map[string]*artifact.Store{
		core.ClassP1:     st.P1,
		core.ClassP2:     st.P2,
		core.ClassStatic: st.P2,
		core.ClassAbsint: st.AI,
		core.ClassHybrid: st.HY,
	}
}

// Close closes every store. Safe on a partially opened bundle.
func (st *Stores) Close() error {
	if st == nil {
		return nil
	}
	st.each(func(_ string, s *artifact.Store) { s.Close() })
	return nil
}

// Saturated reports whether any store's disk tier recently failed a write;
// admission control answers 429 while it holds.
func (st *Stores) Saturated() bool {
	if st == nil {
		return false
	}
	sat := false
	st.each(func(_ string, s *artifact.Store) { sat = sat || s.Saturated() })
	return sat
}

// Counters snapshots every store's accounting, keyed by class.
func (st *Stores) Counters() map[string]artifact.Counters {
	if st == nil {
		return nil
	}
	out := make(map[string]artifact.Counters, 6)
	st.each(func(class string, s *artifact.Store) { out[class] = s.Counters() })
	return out
}
