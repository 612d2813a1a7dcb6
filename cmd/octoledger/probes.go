package main

import (
	"fmt"
	"runtime"
	"time"

	"octopocs/internal/artifact"
	"octopocs/internal/asm"
	"octopocs/internal/corpus"
	"octopocs/internal/expr"
	"octopocs/internal/fuzz"
	"octopocs/internal/solver"
	"octopocs/internal/taint"
	"octopocs/internal/vm"
)

// probeWindow is how long each layer probe repeats its operation.
const probeWindow = 50 * time.Millisecond

// probe repeats op for at least probeWindow and three calls, and returns
// the mean microseconds and heap allocations per call.
func probe(op func() error) (us, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for n < 3 || time.Since(t0) < probeWindow {
		if err := op(); err != nil {
			return 0, 0, err
		}
		n++
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Microseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// runProbes measures each engine alone on a fixed input, the per-layer
// numbers that do not depend on the workload around them. They are the
// operations of the repository's layer benchmarks in bench_test.go.
func runProbes(layers map[string]float64, tmp string) error {
	gif := corpus.ByIdx(9).Pair

	var cs []*expr.Expr
	for i, c := range []byte("MPDF") {
		cs = append(cs, expr.Bin(expr.OpEq, expr.Sym(i), expr.Const(uint64(c))))
	}
	word := expr.Bin(expr.OpOr, expr.Sym(4), expr.Bin(expr.OpShl, expr.Sym(5), expr.Const(8)))
	cs = append(cs,
		expr.Bin(expr.OpEq, word, expr.Const(0x1234)),
		expr.Bin(expr.OpLt, expr.Sym(6), expr.Const(10)),
		expr.Bin(expr.OpEq, expr.Bin(expr.OpAdd, expr.Sym(7), expr.Sym(8)), expr.Const(300)),
	)
	text := asm.Format(corpus.ByIdx(8).Pair.T)

	store, err := artifact.Open(artifact.Options{
		Dir: tmp, HotEntries: -1, Codecs: map[string]artifact.Codec{"jr": artifact.BytesCodec{}},
	})
	if err != nil {
		return err
	}
	defer store.Close()
	payload := make([]byte, 4096)
	puts, gets := 0, 0

	probes := []struct {
		us, allocs string
		op         func() error
	}{
		{"solver.solve_us", "solver.solve_allocs", func() error {
			var s solver.Solver
			_, err := s.Solve(cs)
			return err
		}},
		{"vm.run_us", "vm.run_allocs", func() error {
			out := vm.New(gif.S, vm.Config{Input: gif.PoC}).Run()
			if !out.Crashed() {
				return fmt.Errorf("vm probe: S did not crash (%s)", out)
			}
			return nil
		}},
		{"taint.run_us", "", func() error {
			eng := taint.NewEngine(taint.Config{Lib: gif.Lib, Ep: "gif_read_image", ContextAware: true})
			vm.New(gif.S, vm.Config{Input: gif.PoC, Hooks: eng.Hooks()}).Run()
			if len(eng.Result().Bunches) == 0 {
				return fmt.Errorf("taint probe: no bunches")
			}
			return nil
		}},
		{"asm.parse_us", "", func() error {
			_, err := asm.Parse(text)
			return err
		}},
		{"artifact.put_us", "", func() error {
			puts++
			payload[0], payload[1] = byte(puts), byte(puts>>8)
			store.Put(fmt.Sprintf("jr:%d", puts), append([]byte(nil), payload...))
			return nil
		}},
		{"artifact.get_disk_us", "", func() error {
			gets = gets%puts + 1
			if _, ok := store.Get(fmt.Sprintf("jr:%d", gets)); !ok {
				return fmt.Errorf("artifact probe: entry %d missing from disk", gets)
			}
			return nil
		}},
	}
	for _, p := range probes {
		us, allocs, err := probe(p.op)
		if err != nil {
			return err
		}
		layers[p.us] = us
		if p.allocs != "" {
			layers[p.allocs] = allocs
		}
	}

	// The fuzzer's rate comes from its own execution count: a campaign
	// stops early when it finds the crash.
	t0 := time.Now()
	res := fuzz.RunAFLFast(&fuzz.Target{Prog: gif.T, Lib: gif.Lib, MaxSteps: 100_000},
		fuzz.Config{Seeds: [][]byte{gif.PoC}, MaxExecs: 2_000, Seed: 1})
	layers["fuzz.execs_per_s"] = float64(res.Execs) / time.Since(t0).Seconds()
	return nil
}
