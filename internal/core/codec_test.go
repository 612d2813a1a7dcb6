package core_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"octopocs/internal/core"
)

// mapCache is a minimal concurrency-safe core.Cache for codec tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string]any
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]any)} }

func (c *mapCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// roundTrip re-encodes every cached artifact through its disk codec and
// returns a cache holding only the decoded copies — exactly what a restarted
// process would load from the artifact store's disk tier.
func roundTrip(t *testing.T, src *mapCache) *mapCache {
	t.Helper()
	codecs := map[string]interface {
		Encode(any) ([]byte, error)
		Decode([]byte) (any, error)
	}{
		"p1": core.P1Codec{},
		"p2": core.P2Codec{},
		"ps": core.StaticCodec{},
	}
	dst := newMapCache()
	for key, v := range src.m {
		class, _, _ := strings.Cut(key, ":")
		codec, ok := codecs[class]
		if !ok {
			t.Fatalf("no codec for cached key %q", key)
		}
		data, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("encode %q: %v", key, err)
		}
		decoded, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("decode %q: %v", key, err)
		}
		dst.m[key] = decoded
	}
	return dst
}

// TestCodecRoundTripPreservesReports runs a verification cold with caches
// attached, round-trips every artifact through its wire codec, and re-runs
// the verification against the decoded artifacts: the warm report must be
// identical (timings aside) and must be served from the caches. This is the
// restart scenario of the persistent artifact store, in miniature.
func TestCodecRoundTripPreservesReports(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"dynamic", core.Config{}},
		{"static_prune", core.Config{StaticPrune: true}},
		{"static_cfg_only", core.Config{StaticCFGOnly: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := simplePair(t, "BB")

			p1c, p2c := newMapCache(), newMapCache()
			cold := core.New(tc.cfg)
			cold.SetCaches(map[string]core.Cache{core.ClassP1: p1c, core.ClassP2: p2c, core.ClassStatic: p2c})
			coldRep, err := cold.Verify(pair)
			if err != nil {
				t.Fatalf("cold verify: %v", err)
			}
			if len(p1c.m) == 0 || len(p2c.m) == 0 {
				t.Fatalf("cold run cached nothing (p1=%d p2=%d)", len(p1c.m), len(p2c.m))
			}

			warm := core.New(tc.cfg)
			warmP2 := roundTrip(t, p2c)
			warm.SetCaches(map[string]core.Cache{core.ClassP1: roundTrip(t, p1c), core.ClassP2: warmP2, core.ClassStatic: warmP2})
			warmRep, err := warm.Verify(simplePair(t, "BB"))
			if err != nil {
				t.Fatalf("warm verify: %v", err)
			}
			if !warmRep.Timings.P1Cached || !warmRep.Timings.P2Cached {
				t.Errorf("warm run recomputed artifacts (p1=%v p2=%v)",
					warmRep.Timings.P1Cached, warmRep.Timings.P2Cached)
			}
			if tc.cfg.StaticPrune && !warmRep.Timings.StaticCached {
				t.Error("warm run recomputed static analysis")
			}
			c, w := *coldRep, *warmRep
			c.Timings, w.Timings = core.PhaseTimings{}, core.PhaseTimings{}
			if !reflect.DeepEqual(c, w) {
				t.Errorf("decoded artifacts changed the report\ncold %+v\nwarm %+v", c, w)
			}
		})
	}
}

// TestCodecRejectsGarbage ensures decode failures surface as errors (the
// store maps them to misses) instead of returning half-built artifacts.
func TestCodecRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec interface {
			Decode([]byte) (any, error)
		}
	}{
		{"p1", core.P1Codec{}},
		{"p2", core.P2Codec{}},
		{"ps", core.StaticCodec{}},
	} {
		for _, payload := range [][]byte{nil, []byte("{"), []byte(`{"t":"not a program"}`)} {
			if v, err := tc.codec.Decode(payload); err == nil {
				t.Errorf("%s codec accepted %q: %v", tc.name, payload, v)
			}
		}
	}
}

// TestCodecEncodeRejectsWrongType ensures a mistyped cache value cannot be
// silently persisted as an empty artifact.
func TestCodecEncodeRejectsWrongType(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec interface {
			Encode(any) ([]byte, error)
		}
	}{
		{"p1", core.P1Codec{}},
		{"p2", core.P2Codec{}},
		{"ps", core.StaticCodec{}},
	} {
		if _, err := tc.codec.Encode("wrong"); err == nil {
			t.Errorf("%s codec encoded a string", tc.name)
		}
	}
}
