package clonedet

// codec.go connects clone detection to the persistent artifact store:
// program fingerprints are pure functions of the linked program text and
// the shingle width, so they are content-addressed under ci: keys and
// reused across index builds, scans, and process restarts. The wire form
// carries the actual fingerprint data (hashes, shapes, neighborhood
// unions) because recomputing it is exactly the work the cache exists to
// skip.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"octopocs/internal/asm"
	"octopocs/internal/isa"
)

// Cache stores fingerprint artifacts under content-addressed keys.
// Implementations must be safe for concurrent use: AddAll fingerprints
// targets on Workers goroutines, each probing and filling the cache.
type Cache interface {
	Get(key string) (any, bool)
	Put(key string, v any)
}

// KeyClass is the artifact-store class of fingerprints: the prefix of every
// FingerprintKey.
const KeyClass = "ci"

// FingerprintKey derives the content address of a program's fingerprint
// artifact: the assembled program text is the only input fingerprintProgram
// reads. The shingle width is hashed too, so a change of DefaultK retires
// every stored fingerprint.
func FingerprintKey(prog *isa.Program) string {
	h := sha256.New()
	io.WriteString(h, asm.Format(prog))
	fmt.Fprintf(h, "|k:%d", DefaultK)
	return KeyClass + ":" + hex.EncodeToString(h.Sum(nil))
}

// fingerprint computes (or loads) the fingerprint of one program through
// the configured cache. Cache misses and type mismatches fall back to
// recomputation; fingerprints are deterministic, so a stale-typed hit can
// never change scan results, only cost the recompute.
func (ix *Index) fingerprint(prog *isa.Program) *progFP {
	if ix.cfg.Cache == nil {
		return fingerprintProgram(prog)
	}
	key := FingerprintKey(prog)
	if v, ok := ix.cfg.Cache.Get(key); ok {
		if fp, ok := v.(*progFP); ok {
			return fp
		}
	}
	fp := fingerprintProgram(prog)
	ix.cfg.Cache.Put(key, fp)
	return fp
}

// FingerprintCodec encodes *progFP values for the artifact store's disk
// tier. Unlike the pipeline codecs, it persists the derived data itself:
// the fingerprint is small, plain, and exactly the computation worth
// saving.
type FingerprintCodec struct{}

// fpWire is the on-disk form of a progFP.
type fpWire struct {
	Fns   []fnWire `json:"fns"`
	Insts int      `json:"insts"`
}

// fnWire is the on-disk form of one function fingerprint.
type fnWire struct {
	Name    string   `json:"name"`
	Hashes  []uint64 `json:"hashes"`
	Shape   Shape    `json:"shape"`
	CalleeU []uint64 `json:"callee_u,omitempty"`
	CallerU []uint64 `json:"caller_u,omitempty"`
}

// Encode marshals a *progFP.
func (FingerprintCodec) Encode(v any) ([]byte, error) {
	fp, ok := v.(*progFP)
	if !ok {
		return nil, fmt.Errorf("clonedet: fingerprint codec: unexpected value type %T", v)
	}
	w := fpWire{Insts: fp.insts, Fns: make([]fnWire, len(fp.fns))}
	for i, fn := range fp.fns {
		w.Fns[i] = fnWire{
			Name: fn.name, Hashes: fn.hashes, Shape: fn.shape,
			CalleeU: fn.calleeU, CallerU: fn.callerU,
		}
	}
	return json.Marshal(w)
}

// Decode unmarshals a *progFP, rebuilding the by-name lookup.
func (FingerprintCodec) Decode(data []byte) (any, error) {
	var w fpWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("clonedet: fingerprint codec: %w", err)
	}
	fp := &progFP{insts: w.Insts, byFn: make(map[string]*fnFP, len(w.Fns))}
	for _, fn := range w.Fns {
		f := &fnFP{
			name: fn.Name, hashes: fn.Hashes, shape: fn.Shape,
			calleeU: fn.CalleeU, callerU: fn.CallerU,
		}
		fp.fns = append(fp.fns, f)
		fp.byFn[f.name] = f
	}
	return fp, nil
}
