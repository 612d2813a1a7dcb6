package symex_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/isa"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
)

// resultIdentity renders everything of a Result that the determinism
// contract covers — Kind, Why, entries, and the path condition — but not
// Stats, which legitimately varies with scheduling.
func resultIdentity(res *symex.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%v why=%q entries=%d\n", res.Kind, res.Why, len(res.Entries))
	for _, e := range res.Entries {
		fmt.Fprintf(&b, "entry seq=%d pos=%d args=%d", e.Seq, e.FilePos, len(e.Args))
		for _, a := range e.Args {
			fmt.Fprintf(&b, " %x", a.Fingerprint())
		}
		b.WriteString("\n")
	}
	for _, c := range res.Constraints {
		fmt.Fprintf(&b, "c %x\n", c.Fingerprint())
	}
	return b.String()
}

// runFrontierDirected runs directed execution with the given worker count.
func runFrontierDirected(t *testing.T, prog *isa.Program, c symex.Config, workers int, visitor symex.Visitor) *symex.Result {
	t.Helper()
	g := cfg.Build(prog)
	c.Distances = g.DistancesTo(c.Target)
	c.Workers = workers
	res, err := symex.New(prog, c).Run(visitor)
	if err != nil {
		t.Fatalf("Run(workers=%d) error: %v", workers, err)
	}
	return res
}

// detourProg forces real backtracking: the preferred (closer) call to ep is
// gated on a contradiction, so only the farther call site is feasible.
func detourProg(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.NewBuilder("detour")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(4))
	a := f.Load(1, buf, 0)
	f.If(f.EqI(a, 5), func() {
		f.If(f.EqI(a, 9), func() { f.Call("ep") }) // contradiction
	})
	f.If(f.EqI(a, 7), func() { f.Call("ep") })
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// unreachableProg has no feasible path to ep at all: the run must end in a
// deterministic dead verdict.
func unreachableProg(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.NewBuilder("unreach")
	ep := b.Function("ep", 0)
	ep.RetI(0)
	f := b.Function("main", 0)
	fd := f.Sys(isa.SysOpen)
	buf := f.Sys(isa.SysAlloc, f.Const(8))
	f.Sys(isa.SysRead, fd, buf, f.Const(4))
	a := f.Load(1, buf, 0)
	b0 := f.Load(1, buf, 1)
	f.IfElse(f.GtI(a, 100),
		func() {
			f.If(f.EqI(b0, 3), func() {
				f.If(f.EqI(a, 50), func() { f.Call("ep") }) // contradicts a > 100
			})
		},
		func() {
			f.If(f.EqI(a, 200), func() { f.Call("ep") }) // contradicts a <= 100
		})
	f.Exit(0)
	b.Entry("main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFrontierDirectedDeterminism: 1, 4, and 8 workers must produce the
// identical Result (modulo Stats) on reachable, detour, and unreachable
// programs. Run with -count=2 in CI to catch map-iteration luck.
func TestFrontierDirectedDeterminism(t *testing.T) {
	progs := map[string]*isa.Program{
		"header":      headerProg(t),
		"branchy":     branchyProg(t, 10),
		"detour":      detourProg(t),
		"unreachable": unreachableProg(t),
	}
	for name, prog := range progs {
		ref := resultIdentity(runFrontierDirected(t, prog, symex.Config{Target: "ep", InputSize: 64}, 1, stopAtFirst))
		for _, workers := range []int{4, 8} {
			got := resultIdentity(runFrontierDirected(t, prog, symex.Config{Target: "ep", InputSize: 64}, workers, stopAtFirst))
			if got != ref {
				t.Errorf("%s: workers=%d result differs from workers=1:\n--- 1 worker\n%s--- %d workers\n%s",
					name, workers, ref, workers, got)
			}
		}
	}
}

// TestFrontierSolvesSameInput: the parallel engine's constraints must solve
// to an input satisfying the program's gate, and the detour program must
// actually have backtracked to the feasible site.
func TestFrontierSolvesSameInput(t *testing.T) {
	res := runFrontierDirected(t, headerProg(t), symex.Config{Target: "ep", InputSize: 16}, 4, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("header: kind=%v (%s), want reached", res.Kind, res.Why)
	}
	if in := solveInput(t, res, 16); string(in[:4]) != "MJPG" {
		t.Errorf("header: solved %q, want MJPG", in[:4])
	}
	if res.Stats.Workers != 4 {
		t.Errorf("Stats.Workers = %d, want 4", res.Stats.Workers)
	}

	res = runFrontierDirected(t, detourProg(t), symex.Config{Target: "ep", InputSize: 8}, 4, stopAtFirst)
	if !res.Reached() {
		t.Fatalf("detour: kind=%v (%s), want reached", res.Kind, res.Why)
	}
	if in := solveInput(t, res, 8); in[0] != 7 {
		t.Errorf("detour: in[0] = %d, want 7", in[0])
	}
}

// TestFrontierSharedSolverCache: workers sharing one solver cache must agree
// with the uncached run and actually hit the cache (re-checked conditions
// recur across sibling states).
func TestFrontierSharedSolverCache(t *testing.T) {
	prog := branchyProg(t, 10)
	cache := solver.NewCache(1024)
	g := cfg.Build(prog)
	c := symex.Config{
		Target:      "ep",
		InputSize:   64,
		Distances:   g.DistancesTo("ep"),
		Workers:     4,
		SolverCache: cache,
	}
	res, err := symex.New(prog, c).Run(stopAtFirst)
	if err != nil {
		t.Fatalf("Run() = %v", err)
	}
	plain := runFrontierDirected(t, prog, symex.Config{Target: "ep", InputSize: 64}, 4, stopAtFirst)
	if resultIdentity(res) != resultIdentity(plain) {
		t.Errorf("cached run differs from uncached:\n%s\nvs\n%s", resultIdentity(res), resultIdentity(plain))
	}
	// A second identical run must be answered largely from the cache.
	if _, err := symex.New(prog, c).Run(stopAtFirst); err != nil {
		t.Fatalf("second Run() = %v", err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("expected sat-cache hits across repeated runs, got %+v", st)
	}
}

// TestFrontierCancellation closes the Stop channel at staggered points and
// expects either a clean completion or ErrStopped — never a wedge or a data
// race (run under -race in CI).
func TestFrontierCancellation(t *testing.T) {
	prog := branchyProg(t, 12)
	g := cfg.Build(prog)
	dists := g.DistancesTo("ep")
	for i := 0; i < 6; i++ {
		stop := make(chan struct{})
		go func(delay time.Duration) {
			time.Sleep(delay)
			close(stop)
		}(time.Duration(i) * 200 * time.Microsecond)
		c := symex.Config{Target: "ep", InputSize: 64, Distances: dists, Workers: 4, Stop: stop}
		res, err := symex.New(prog, c).Run(stopAtFirst)
		if err != nil {
			if !errors.Is(err, symex.ErrStopped) {
				t.Fatalf("iteration %d: err = %v, want ErrStopped or nil", i, err)
			}
			continue
		}
		if res == nil {
			t.Fatalf("iteration %d: nil result with nil error", i)
		}
	}
}
