package service

import (
	"bytes"
	"context"
	"regexp"
	"slices"
	"sort"
	"testing"

	"octopocs/internal/artifact"
	"octopocs/internal/clonedet"
	"octopocs/internal/core"
	"octopocs/internal/journal"
)

// TestStoreBundleCoversEveryClass checks the store table from every
// reader's side, for the memory-only bundle a service builds itself and
// for a persistent one opened with OpenStores: every key prefix the
// pipeline, the journal and the clone front end write resolves to exactly
// one store of the bundle, a persistent store holds a codec for each
// prefix it serves, and Stats and /metrics list the same six classes.
func TestStoreBundleCoversEveryClass(t *testing.T) {
	persisted, err := OpenStores(StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("OpenStores: %v", err)
	}
	defer persisted.Close()

	prefixes := append(slices.Clone(core.Classes), journal.KeyClass, clonedet.KeyClass)
	wantClasses := []string{"ai", "ci", "hy", "jr", "p1", "p2"}
	hitsLine := regexp.MustCompile(`(?m)^octopocs_store_hits_total\{class="([a-z0-9]+)"\}`)

	for _, mode := range []struct {
		name   string
		stores *Stores
	}{
		{"memory", nil},
		{"persistent", persisted},
	} {
		t.Run(mode.name, func(t *testing.T) {
			svc := New(Config{Workers: 1, Stores: mode.stores})
			defer svc.Shutdown(context.Background())
			bundle := svc.stores
			if bundle == nil || len(bundle.stores) != len(storeClasses) {
				t.Fatalf("bundle = %+v, want one store per table row (%d)", bundle, len(storeClasses))
			}
			persistent := mode.stores != nil

			for _, prefix := range prefixes {
				st, ok := bundle.cache(prefix).(*artifact.Store)
				if !ok || st == nil {
					t.Errorf("prefix %q resolves to no store", prefix)
					continue
				}
				if n := count(bundle.stores, func(s *artifact.Store) bool { return s == st }); n != 1 {
					t.Errorf("prefix %q resolves to a store found %d times in the bundle", prefix, n)
				}
				key := prefix + ":k"
				holders := count(bundle.stores, func(s *artifact.Store) bool { return s.Persists(key) })
				switch {
				case persistent && (holders != 1 || !st.Persists(key)):
					t.Errorf("prefix %q: %d stores hold its codec, resolved store holds it: %v",
						prefix, holders, st.Persists(key))
				case !persistent && holders != 0:
					t.Errorf("memory-only bundle persists prefix %q", prefix)
				}
			}

			var statClasses []string
			for class := range svc.Stats().Stores {
				statClasses = append(statClasses, class)
			}
			sort.Strings(statClasses)
			if !slices.Equal(statClasses, wantClasses) {
				t.Errorf("Stats().Stores classes = %v, want %v", statClasses, wantClasses)
			}

			var buf bytes.Buffer
			if err := svc.Registry().WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			var metricClasses []string
			for _, m := range hitsLine.FindAllStringSubmatch(buf.String(), -1) {
				metricClasses = append(metricClasses, m[1])
			}
			sort.Strings(metricClasses)
			if !slices.Equal(metricClasses, wantClasses) {
				t.Errorf("octopocs_store_hits_total classes = %v, want %v", metricClasses, wantClasses)
			}
		})
	}
}

// count reports how many stores satisfy pred.
func count(stores []*artifact.Store, pred func(*artifact.Store) bool) int {
	n := 0
	for _, s := range stores {
		if pred(s) {
			n++
		}
	}
	return n
}
