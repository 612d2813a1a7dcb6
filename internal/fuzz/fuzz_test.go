package fuzz_test

import (
	"errors"
	"runtime"
	"testing"

	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/corpus"
	"octopocs/internal/fuzz"
	"octopocs/internal/isa"
)

// trivialTarget crashes whenever byte 0 is 0x42.
func trivialTarget(t *testing.T) *fuzz.Target {
	t.Helper()
	b := asm.NewBuilder("trivial")
	ep := b.Function("vuln", 1)
	ep.If(ep.EqI(ep.Param(0), 0x42), func() {
		ep.Ret(ep.Load(8, ep.Const(0), 0)) // null deref
	})
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(1))
	f.Call("vuln", f.Load(1, buf, 0))
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &fuzz.Target{Prog: prog, Lib: map[string]bool{"vuln": true}, MaxSteps: 10_000}
}

func TestAFLFastFindsTrivialCrash(t *testing.T) {
	res := fuzz.RunAFLFast(trivialTarget(t), fuzz.Config{
		Seeds:    [][]byte{{0x00}},
		MaxExecs: 50_000,
		Seed:     1,
	})
	if !res.Found {
		t.Fatalf("not found in %d execs", res.Execs)
	}
	if res.Crash[0] != 0x42 {
		t.Errorf("crash input % x, want first byte 0x42", res.Crash)
	}
	if res.CrashLoc.Func != "vuln" {
		t.Errorf("crash loc = %v, want vuln", res.CrashLoc)
	}
}

func TestAFLGoFindsTrivialCrash(t *testing.T) {
	res, err := fuzz.RunAFLGo(trivialTarget(t), "vuln", fuzz.Config{
		Seeds:    [][]byte{{0x00}},
		MaxExecs: 50_000,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("not found in %d execs", res.Execs)
	}
}

func TestAFLGoToolErrorOnIndirectDispatch(t *testing.T) {
	// The MuPDF target reaches ℓ only through a function-pointer table:
	// static distance instrumentation must fail (Table V row 2).
	spec := corpus.ByIdx(8)
	target := &fuzz.Target{Prog: spec.Pair.T, Lib: spec.Pair.Lib, MaxSteps: 100_000}
	_, err := fuzz.RunAFLGo(target, "j2k_decode", fuzz.Config{
		Seeds: [][]byte{spec.Pair.PoC}, MaxExecs: 10, Seed: 1,
	})
	if !errors.Is(err, fuzz.ErrNoDistance) {
		t.Fatalf("RunAFLGo = %v, want ErrNoDistance", err)
	}
}

func TestCrashingSeedDetectedImmediately(t *testing.T) {
	res := fuzz.RunAFLFast(trivialTarget(t), fuzz.Config{
		Seeds:    [][]byte{{0x42}},
		MaxExecs: 100,
		Seed:     1,
	})
	if !res.Found || res.Execs != 1 {
		t.Fatalf("found=%v execs=%d, want immediate detection", res.Found, res.Execs)
	}
}

func TestBudgetRespected(t *testing.T) {
	// A target that never crashes: the campaign must stop at MaxExecs.
	b := asm.NewBuilder("safe")
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(4))
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	target := &fuzz.Target{Prog: prog, Lib: map[string]bool{"none": true}, MaxSteps: 10_000}
	res := fuzz.RunAFLFast(target, fuzz.Config{Seeds: [][]byte{{1, 2, 3}}, MaxExecs: 2_000, Seed: 7})
	if res.Found {
		t.Fatal("found a crash in a crash-free target")
	}
	if res.Execs < 2_000 {
		t.Errorf("execs = %d, want the full budget", res.Execs)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *fuzz.Result {
		return fuzz.RunAFLFast(trivialTarget(t), fuzz.Config{
			Seeds:    [][]byte{{0x00, 0x10, 0x20}},
			MaxExecs: 20_000,
			Seed:     99,
		})
	}
	a, b := run(), run()
	if a.Found != b.Found || a.Execs != b.Execs {
		t.Errorf("campaigns diverged: %+v vs %+v", a, b)
	}
}

// TestTableVGifFindable: the artificial gif2png clone needs only a one-byte
// version fix from the original PoC — within reach of a havoc campaign
// (the paper's AFLFast-verifies-gif2png row).
func TestTableVGifFindable(t *testing.T) {
	spec := corpus.ByIdx(9)
	target := &fuzz.Target{Prog: spec.Pair.T, Lib: spec.Pair.Lib, MaxSteps: 200_000}
	res := fuzz.RunAFLFast(target, fuzz.Config{
		Seeds:    [][]byte{spec.Pair.PoC},
		MaxExecs: 400_000,
		Seed:     3,
	})
	if !res.Found {
		t.Fatalf("AFLFast did not verify gif2png-artificial in %d execs", res.Execs)
	}
	t.Logf("found after %d execs, queue %d", res.Execs, res.QueueLen)
}

// TestTableVDeepMagicNotFindable: opj_dump requires five exact codestream
// bytes from a PDF-wrapped seed; a modest budget must not find it (the
// N/A rows of Table V).
func TestTableVDeepMagicNotFindable(t *testing.T) {
	spec := corpus.ByIdx(7)
	target := &fuzz.Target{Prog: spec.Pair.T, Lib: spec.Pair.Lib, MaxSteps: 100_000}
	res := fuzz.RunAFLFast(target, fuzz.Config{
		Seeds:    [][]byte{spec.Pair.PoC},
		MaxExecs: 60_000,
		Seed:     3,
	})
	if res.Found {
		t.Fatalf("AFLFast unexpectedly verified opj_dump after %d execs", res.Execs)
	}
}

// TestExecAllocBound guards the per-exec heap cost of a campaign: the
// harness runs every exec on one reset machine and reuses its coverage
// map, block set and mutant buffer, so an exec allocates only what
// admissions, crashes and map growth amortize to. The bounds are about
// twice the measured cost (173 B on gif2png, 17 B on the directed arm); a
// fresh VM per exec cost about 400 B, a per-exec coverage map 256 KB. The
// directed case is shaped like the hybrid fallback's masked arm, whose
// blocks went into a map on every block entry before dense block ids.
// Under -race, where recycled VM frames are dropped at random, only the
// 32 KB bound of a VM run holds.
func TestExecAllocBound(t *testing.T) {
	gif := corpus.ByIdx(9)
	mag := corpus.ByIdx(20)
	magTarget := &fuzz.Target{Prog: mag.Pair.T, Lib: mag.Pair.Lib, MaxSteps: 2_000_000}
	tests := []struct {
		name  string
		bound uint64
		run   func() *fuzz.Result
	}{
		{"gif2png/AFLFast", 384, func() *fuzz.Result {
			target := &fuzz.Target{Prog: gif.Pair.T, Lib: gif.Pair.Lib, MaxSteps: 100_000}
			return fuzz.RunAFLFast(target, fuzz.Config{
				Seeds: [][]byte{gif.Pair.PoC}, MaxExecs: 2_000, Seed: 1, Shards: 1,
			})
		}},
		{"twomag/masked-directed", 40, func() *fuzz.Result {
			dists := cfg.Build(mag.Pair.T).DistancesTo("decode")
			return fuzz.RunDirected(magTarget, "decode", dists, fuzz.Config{
				Seeds:       [][]byte{mag.Pair.PoC},
				MaxExecs:    20_000,
				Seed:        1,
				MaxInputLen: 128,
				Frozen:      []fuzz.Span{{Start: 8, Len: 1}},
			})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := tt.run()
			runtime.ReadMemStats(&after)
			if res.Execs == 0 {
				t.Fatal("campaign ran no execs")
			}
			perExec := (after.TotalAlloc - before.TotalAlloc) / uint64(res.Execs)
			t.Logf("%d execs, %d B allocated per exec", res.Execs, perExec)
			bound := tt.bound
			if raceEnabled {
				bound = 32 << 10
			}
			if perExec >= bound {
				t.Errorf("campaign allocates %d B per exec, want < %d", perExec, bound)
			}
		})
	}
}
