package fuzz

import "testing"

// denseFold is the reference coverage fold: a freshly zeroed local map
// for the whole exec, then a walk over all MapSize entries. The harness's
// sparse fold must agree with it exec for exec.
func denseFold(virgin *[MapSize]uint8, blocks []blockKey) (pathID uint64, newCov bool) {
	var local [MapSize]uint32
	prev := uint32(0)
	for _, k := range blocks {
		cur := blockID(k.fn, k.b)
		local[(prev^cur)&(MapSize-1)]++
		prev = cur >> 1
	}
	var pathHash uint64 = 1469598103934665603
	for i, n := range local {
		if n == 0 {
			continue
		}
		b := bucket(n)
		pathHash ^= uint64(i)*31 + uint64(b)
		pathHash *= 1099511628211
		if virgin[i]&b != b {
			virgin[i] |= b
			newCov = true
		}
	}
	return pathHash, newCov
}

// foldFuncs names the functions a fuzzed block sequence draws from.
var foldFuncs = [4]string{"main", "decode", "parse", "vuln"}

// decodeExecs splits fuzz bytes into per-exec block sequences. 0xff ends
// an exec; any other byte b enters block b>>2&15 of foldFuncs[b&3], and
// repeats that entry 1, 51, 101 or 151 times by b>>6, so self-loop edges
// reach every hit-count bucket.
func decodeExecs(data []byte) [][]blockKey {
	execs := [][]blockKey{nil}
	for _, c := range data {
		if c == 0xff {
			execs = append(execs, nil)
			continue
		}
		k := blockKey{foldFuncs[c&3], int(c >> 2 & 15)}
		cur := &execs[len(execs)-1]
		for r := 0; r < 1+int(c>>6)*50; r++ {
			*cur = append(*cur, k)
		}
	}
	return execs
}

// FuzzCoverageFold is the differential oracle for the harness's sparse
// coverage map: over arbitrary consecutive execs on one harness, the path
// signature, the new-coverage flag and the virgin map must equal the dense
// reference fold's, and re-running the first exec after the second must
// reproduce its signature, which fails if any scratch entry leaks from
// one exec into the next.
func FuzzCoverageFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x05, 0x0a, 0xff, 0x00, 0x05, 0xff, 0x00, 0x05, 0x0a})
	f.Add([]byte{0xc1, 0x41, 0x81, 0xff, 0xc1, 0xff, 0x01, 0x02, 0x03})
	f.Add([]byte{0x10, 0x20, 0x10, 0x20, 0x10, 0x20, 0xff, 0xff, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		execs := decodeExecs(data)
		h := newHarness(&Target{}, false)
		var virgin [MapSize]uint8
		exec := func(blocks []blockKey) (uint64, bool) {
			for _, k := range blocks {
				h.onBlock(k.fn, k.b)
			}
			return h.fold()
		}
		var paths []uint64
		for n, blocks := range execs {
			gotPath, gotNew := exec(blocks)
			wantPath, wantNew := denseFold(&virgin, blocks)
			if gotPath != wantPath || gotNew != wantNew {
				t.Fatalf("exec %d: sparse fold (path %x, new %v) != dense (path %x, new %v)",
					n, gotPath, gotNew, wantPath, wantNew)
			}
			if h.virgin != virgin {
				t.Fatalf("exec %d: virgin maps diverge", n)
			}
			paths = append(paths, gotPath)
		}
		if len(execs) < 2 {
			return
		}
		exec(execs[1])
		if again, _ := exec(execs[0]); again != paths[0] {
			t.Fatalf("exec 0 re-run after exec 1: path %x, first run %x", again, paths[0])
		}
	})
}
