package octopocs_test

import (
	"sync"
	"testing"

	"octopocs"
	"octopocs/internal/cfg"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/eval"
	"octopocs/internal/expr"
	"octopocs/internal/fuzz"
	"octopocs/internal/solver"
	"octopocs/internal/survey"
	"octopocs/internal/symex"
	"octopocs/internal/taint"
	"octopocs/internal/vm"
)

// logOnce prints a regenerated table a single time per benchmark run (shown
// with `go test -bench . -v`).
var logOnce sync.Map

func logTable(b *testing.B, key, table string) {
	b.Helper()
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + table)
	}
}

// BenchmarkTableII regenerates the paper's Table II (verification verdicts
// for all 15 pairs) per iteration.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableII()
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "t2", eval.FormatTableII(rows))
	}
}

// BenchmarkTableIII regenerates Table III (context-aware versus plain
// taint analysis on the nine triggered pairs).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "t3", eval.FormatTableIII(rows))
	}
}

// BenchmarkTableIV regenerates Table IV (naive versus directed symbolic
// execution on the three Type-II pairs).
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableIV(32 << 20)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "t4", eval.FormatTableIV(rows))
	}
}

// BenchmarkTableV regenerates Table V (AFLFast / AFLGo / OCTOPOCS). The
// fuzzing budget is reduced relative to octobench so a benchmark iteration
// stays tractable; run `octobench -table 5` for the full campaign.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableV(60_000)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "t5", eval.FormatTableV(rows))
	}
}

// BenchmarkLatestFindings regenerates the § V-B latest-version
// verifications (three still-vulnerable latest Ts plus two post-report
// fixes).
func BenchmarkLatestFindings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Latest()
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "latest", eval.FormatLatest(rows))
	}
}

// BenchmarkSweeps regenerates the two parameter-sweep series: the § VII θ
// crossover and the Table IV naive-SE memory threshold.
func BenchmarkSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		thetaPts, err := eval.SweepTheta(nil)
		if err != nil {
			b.Fatal(err)
		}
		memPts, err := eval.SweepNaiveMem([]int64{1 << 20, 1 << 24})
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "sweeps", eval.FormatThetaSweep(thetaPts)+"\n"+eval.FormatMemSweep(memPts))
	}
}

// BenchmarkPoCTypeSurvey regenerates the § II-A statistic (70% of PoCs are
// malformed files).
func BenchmarkPoCTypeSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		counts := survey.Run(survey.Generate(1))
		if counts.ByType[survey.MalformedFile] != survey.PaperFilePoCs {
			b.Fatalf("survey drifted: %+v", counts)
		}
	}
}

// --- per-phase microbenchmarks ----------------------------------------------

// BenchmarkVMConcreteRun measures raw interpreter throughput on an S binary
// crashing under its PoC (the P4 cost).
func BenchmarkVMConcreteRun(b *testing.B) {
	spec := corpus.ByIdx(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := vm.New(spec.Pair.S, vm.Config{Input: spec.Pair.PoC}).Run()
		if !out.Crashed() {
			b.Fatal("expected crash")
		}
	}
}

// BenchmarkTaintAnalysis measures P1: context-aware taint over the S run.
func BenchmarkTaintAnalysis(b *testing.B) {
	spec := corpus.ByIdx(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := taint.NewEngine(taint.Config{
			Lib: spec.Pair.Lib, Ep: "gif_read_image", ContextAware: true,
		})
		vm.New(spec.Pair.S, vm.Config{Input: spec.Pair.PoC, Hooks: eng.Hooks()}).Run()
		if len(eng.Result().Bunches) == 0 {
			b.Fatal("no bunches")
		}
	}
}

// BenchmarkDirectedSE measures P2+P3 on the MuPDF pair (format bridge with
// indirect dispatch) via the full pipeline.
func BenchmarkDirectedSE(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := corpus.ByIdx(8)
		rep, err := core.New(core.Config{}).Verify(spec.Pair)
		if err != nil || rep.Verdict != core.VerdictTriggered {
			b.Fatalf("verify: %v / %v", err, rep)
		}
	}
}

// BenchmarkNaiveSEOpjDump measures undirected exploration on the one
// binary it can handle (Table IV row 1).
func BenchmarkNaiveSEOpjDump(b *testing.B) {
	spec := corpus.ByIdx(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := symex.RunNaive(spec.Pair.T, symex.NaiveConfig{
			Target: "j2k_decode", InputSize: len(spec.Pair.PoC) + 64,
		})
		if err != nil || !res.Reached() {
			b.Fatalf("naive: %v / %v", err, res)
		}
	}
}

// BenchmarkDiscover measures dynamic-CFG discovery (the P2 preparation
// pass) on rows 3, 19 and 20, the corpus's most solver-bound discoveries,
// each op with a fresh solver cache as a cold pipeline has. Row 3's pair
// filters are the ones the solver's residual fold settles.
func BenchmarkDiscover(b *testing.B) {
	pairs := []*core.Pair{corpus.ByIdx(3).Pair, corpus.ByIdx(19).Pair, corpus.ByIdx(20).Pair}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache := solver.NewCache(0)
		for _, pair := range pairs {
			if _, err := symex.Discover(pair.T, symex.NaiveConfig{
				InputSize: len(pair.PoC) + 64, MaxSteps: pair.MaxSteps, SolverCache: cache,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSolver measures constraint solving on two systems: a
// representative guiding input system (magic bytes, a word equality, a
// range and a sum relation, 7 constraints) and a path-length one, 64
// constraints of the shapes a feasibility check re-sends at every fork:
// magic bytes, ranges, disequalities and sums of a free and a magic byte.
// The path system runs through Sat, as feasibility checks do.
func BenchmarkSolver(b *testing.B) {
	var guide []*expr.Expr
	for i, c := range []byte("MPDF") {
		guide = append(guide, expr.Bin(expr.OpEq, expr.Sym(i), expr.Const(uint64(c))))
	}
	word := expr.Bin(expr.OpOr, expr.Sym(4), expr.Bin(expr.OpShl, expr.Sym(5), expr.Const(8)))
	guide = append(guide,
		expr.Bin(expr.OpEq, word, expr.Const(0x1234)),
		expr.Bin(expr.OpLt, expr.Sym(6), expr.Const(10)),
		expr.Bin(expr.OpEq, expr.Bin(expr.OpAdd, expr.Sym(7), expr.Sym(8)), expr.Const(300)),
	)
	b.Run("guide7", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s solver.Solver
			if _, err := s.Solve(guide); err != nil {
				b.Fatal(err)
			}
		}
	})

	var path []*expr.Expr
	for i := 0; i < 32; i++ {
		path = append(path, expr.Bin(expr.OpEq, expr.Sym(i), expr.Const(uint64(0x41+i))))
	}
	for i := 32; i < 48; i++ {
		path = append(path, expr.Bin(expr.OpLt, expr.Sym(i), expr.Const(uint64(16+i))))
	}
	for i := 32; i < 40; i++ {
		path = append(path, expr.Bin(expr.OpNe, expr.Sym(i), expr.Const(0)))
	}
	for i := 48; i < 56; i++ {
		sum := expr.Bin(expr.OpAdd, expr.Sym(i), expr.Sym(i-48))
		path = append(path, expr.Bin(expr.OpLt, expr.Const(100), sum))
	}
	b.Run("path64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s solver.Solver
			if sat, err := s.Sat(path); err != nil || !sat {
				b.Fatalf("Sat = %v, %v", sat, err)
			}
		}
	})
}

// BenchmarkSymexFrontier measures directed frontier exploration of both
// corpus.SymexBench() specs as octoledger's symex-frontier workload runs
// them: 2 explorer workers, no solver cache, so every feasibility check is
// solved. Each check submits only its independent slice of the path, the
// constraints on the bytes the branch reads: bitfan-d12, whose diamonds
// share a byte eight at a time, is led by frontier bookkeeping, mixmul-d8
// by one two-symbol pair filter per check.
func BenchmarkSymexFrontier(b *testing.B) {
	for _, spec := range corpus.SymexBench() {
		dist := cfg.Build(spec.Prog).DistancesTo(spec.Target)
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := symex.New(spec.Prog, symex.Config{
					Target:        spec.Target,
					InputSize:     spec.InputSize,
					Distances:     dist,
					MaxBacktracks: 1 << 20,
					SatBudget:     1 << 27,
					Workers:       2,
				}).Run(func(symex.EpEntry, *symex.State) (symex.Decision, error) {
					return symex.Stop, nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Reached() || res.Stats.States != spec.Leaves {
					b.Fatalf("reached %v, %d states, want %d unreached leaves", res.Reached(), res.Stats.States, spec.Leaves)
				}
			}
		})
	}
}

// BenchmarkFuzzThroughput measures baseline fuzzing executions per second
// on the gif2png clone.
func BenchmarkFuzzThroughput(b *testing.B) {
	spec := corpus.ByIdx(9)
	target := &fuzz.Target{Prog: spec.Pair.T, Lib: spec.Pair.Lib, MaxSteps: 100_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fuzz.RunAFLFast(target, fuzz.Config{
			Seeds: [][]byte{spec.Pair.PoC}, MaxExecs: 2_000, Seed: int64(i),
		})
	}
}

// BenchmarkHybridRescue verifies rows 18-21 with static pruning, absint
// and the hybrid fuzzing fallback on, as octoledger's hybrid-rescue
// workload and `octopocs -static -absint -hybrid` run them. The fuzz
// campaign is most of its time, so it times the fuzzer's exec loop.
func BenchmarkHybridRescue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range corpus.HybridSet() {
			rep, err := core.New(core.Config{StaticPrune: true, Absint: true, HybridFuzz: true}).Verify(spec.Pair)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Verdict != core.VerdictTriggeredByFuzzing {
				b.Fatalf("row %d: verdict %v, want triggered-by-fuzzing", spec.Idx, rep.Verdict)
			}
		}
	}
}

// BenchmarkPipelineEndToEnd measures a complete Verify on every verdict
// class: Type-I (idx 4), Type-II (idx 8), Type-III (idx 10), Failure (15).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for _, idx := range []int{4, 8, 10, 15} {
		spec := corpus.ByIdx(idx)
		b.Run(spec.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pair := corpus.ByIdx(idx).Pair
				if _, err := octopocs.New(octopocs.Config{}).Verify(pair); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
