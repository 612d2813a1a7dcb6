package fuzz

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"octopocs/internal/isa"
)

// blockKey names one block by function name and index.
type blockKey struct {
	fn string
	b  int
}

// compareKeys orders blocks by (function name, block).
func compareKeys(x, y blockKey) int {
	if c := cmp.Compare(x.fn, y.fn); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

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

// foldFuncs names the functions a fuzzed block sequence draws from, in
// an order that is not name order, so dense numbering has to sort them.
var foldFuncs = [4]string{"main", "decode", "parse", "vuln"}

// foldProgram is a linked program with 16 blocks in each of foldFuncs.
func foldProgram(t testing.TB) *isa.Program {
	prog := &isa.Program{Name: "fold", Entry: "main"}
	for _, name := range foldFuncs {
		f := &isa.Function{Name: name}
		for i := range 16 {
			f.Blocks = append(f.Blocks, &isa.Block{Name: string(rune('a' + i)), Insts: []isa.Inst{{Op: isa.OpRet}}})
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// foldDist gives every third block no distance and the rest a distance
// whose float sum depends on the order it is added in.
func foldDist(fn string, b int) (float64, bool) {
	if b%3 == 0 {
		return 0, false
	}
	return float64(len(fn))*0.1 + float64(b)*1e15 + 0.3, true
}

// refSeedDist is the reference AFLGo seed distance: the distinct blocks
// sorted by (function name, block), summed in that order.
func refSeedDist(blocks []blockKey) (sorted []blockKey, dist float64) {
	for _, k := range blocks {
		if !slices.Contains(sorted, k) {
			sorted = append(sorted, k)
		}
	}
	slices.SortFunc(sorted, compareKeys)
	sum, n := 0.0, 0
	for _, k := range sorted {
		if d, ok := foldDist(k.fn, k.b); ok {
			sum += d
			n++
		}
	}
	if n == 0 {
		return sorted, math.Inf(1)
	}
	return sorted, sum / float64(n)
}

// visitedKeys decodes the harness's block list back into block names.
func visitedKeys(h *harness, prog *isa.Program) []blockKey {
	var out []blockKey
	for _, n := range h.visited {
		for _, f := range prog.Funcs {
			if b := int(n) - int(h.first[f.Index]); b >= 0 && b < len(f.Blocks) {
				out = append(out, blockKey{f.Name, b})
			}
		}
	}
	return out
}

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
// coverage map and dense block set: over arbitrary consecutive execs on
// one directed harness, the path signature, the new-coverage flag and the
// virgin map must equal the dense reference fold's; the sorted block list
// must equal the distinct blocks sorted by (function name, block), and
// the seed distance the reference's bit for bit; and re-running the first
// exec after the second must reproduce its signature, which fails if any
// scratch entry leaks from one exec into the next.
func FuzzCoverageFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x05, 0x0a, 0xff, 0x00, 0x05, 0xff, 0x00, 0x05, 0x0a})
	f.Add([]byte{0xc1, 0x41, 0x81, 0xff, 0xc1, 0xff, 0x01, 0x02, 0x03})
	f.Add([]byte{0x10, 0x20, 0x10, 0x20, 0x10, 0x20, 0xff, 0xff, 0x10})
	prog := foldProgram(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		execs := decodeExecs(data)
		h := newHarness(&Target{Prog: prog}, foldDist)
		var virgin [MapSize]uint8
		exec := func(blocks []blockKey) (uint64, bool) {
			h.clearVisited()
			for _, k := range blocks {
				h.onBlock(prog.Func(k.fn), k.b)
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
			gotDist := h.seedDist()
			wantKeys, wantDist := refSeedDist(blocks)
			if got := visitedKeys(h, prog); !slices.Equal(got, wantKeys) {
				t.Fatalf("exec %d: sorted block list %v, want %v", n, got, wantKeys)
			}
			if math.Float64bits(gotDist) != math.Float64bits(wantDist) {
				t.Fatalf("exec %d: seed distance %v, want %v", n, gotDist, wantDist)
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

// TestVisitedEpochWrap runs the exec whose epoch bump wraps to zero. It
// must list exactly the blocks it entered: neither skip a block stamped
// 2^32 execs ago (stamp 1) nor one never entered (stamp 0).
func TestVisitedEpochWrap(t *testing.T) {
	prog := foldProgram(t)
	h := newHarness(&Target{Prog: prog}, foldDist)
	for i := range h.seen {
		h.seen[i] = 1
	}
	h.seen[h.first[prog.Func("parse").Index]+3] = 0
	h.epoch = math.MaxUint32 - 1
	execs := [][]blockKey{
		{{"main", 1}},
		{{"main", 1}, {"decode", 4}, {"parse", 3}, {"main", 1}},
		{{"vuln", 2}},
	}
	for n, blocks := range execs {
		h.clearVisited()
		for _, k := range blocks {
			h.onBlock(prog.Func(k.fn), k.b)
		}
		slices.Sort(h.visited)
		want, _ := refSeedDist(blocks)
		if got := visitedKeys(h, prog); !slices.Equal(got, want) {
			t.Fatalf("exec %d (epoch %d): blocks %v, want %v", n, h.epoch, got, want)
		}
	}
}
