package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// parseSrc parses one fixture file and wraps it for RunFiles.
func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return fset, []*ast.File{f}
}

func runFixture(t *testing.T, importPath, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset, files := parseSrc(t, src)
	diags, err := RunFiles(fset, files, importPath, analyzers)
	if err != nil {
		t.Fatalf("RunFiles: %v", err)
	}
	return diags
}

// TestCtxLoopFlagsBusyLoop checks the core finding: a goroutine spinning on
// work with no cancellation point is flagged, whether the loop sits in the
// launched literal or in a function the goroutine reaches transitively.
func TestCtxLoopFlagsBusyLoop(t *testing.T) {
	src := `package p

func spin() {
	for {
		work()
	}
}

func work() {}

func launch() {
	go func() {
		spin()
	}()
}
`
	diags := runFixture(t, "octopocs/internal/symex", src, []*Analyzer{CtxLoop})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Pos.Line != 4 || !strings.Contains(diags[0].Message, "no cancellation point") {
		t.Errorf("unexpected diagnostic: %v", diags[0])
	}
}

// TestCtxLoopAcceptsCancellation checks each accepted cancellation idiom
// silences the analyzer: ctx.Err, a Stop-channel select (even reached
// through a helper), a channel receive, and a cond wait.
func TestCtxLoopAcceptsCancellation(t *testing.T) {
	cases := map[string]string{
		"ctx.Err": `package p
import "context"
func launch(ctx context.Context) {
	go func() {
		for {
			if ctx.Err() != nil {
				return
			}
		}
	}()
}
`,
		"select through helper": `package p
func stopHit(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}
func launch(stop chan struct{}) {
	go func() {
		for {
			if stopHit(stop) {
				return
			}
		}
	}()
}
`,
		"receive": `package p
func launch(ch chan int) {
	go func() {
		for {
			if <-ch == 0 {
				return
			}
		}
	}()
}
`,
		"cond wait": `package p
import "sync"
func launch(c *sync.Cond, done *bool) {
	go func() {
		for !*done {
			c.Wait()
		}
	}()
}
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if diags := runFixture(t, "octopocs/internal/service", src, []*Analyzer{CtxLoop}); len(diags) != 0 {
				t.Errorf("got diagnostics, want none: %v", diags)
			}
		})
	}
}

// TestCtxLoopScope checks loops outside the audited packages and loops
// outside any goroutine are left alone, and that bounded loop forms are
// exempt even inside goroutines.
func TestCtxLoopScope(t *testing.T) {
	busy := `package p
func launch() {
	go func() {
		for {
		}
	}()
}
`
	if diags := runFixture(t, "octopocs/internal/corpus", busy, []*Analyzer{CtxLoop}); len(diags) != 0 {
		t.Errorf("out-of-scope package flagged: %v", diags)
	}
	noGoroutine := `package p
func mainLoop() {
	for {
		work()
	}
}
func work() {}
`
	if diags := runFixture(t, "octopocs/internal/core", noGoroutine, []*Analyzer{CtxLoop}); len(diags) != 0 {
		t.Errorf("non-goroutine loop flagged: %v", diags)
	}
	bounded := `package p
func launch(jobs chan int) {
	go func() {
		for range jobs {
		}
		for i := 0; i < 10; i++ {
		}
	}()
}
`
	if diags := runFixture(t, "octopocs/internal/core", bounded, []*Analyzer{CtxLoop}); len(diags) != 0 {
		t.Errorf("bounded loops flagged: %v", diags)
	}
}

// TestPhaseDocFixtures checks the three documentation findings and the two
// exemptions (package main, non-internal import path).
func TestPhaseDocFixtures(t *testing.T) {
	undocumented := `package p
func F() {}
`
	noPhase := `// Package p does things.
//
// Concurrency: safe.
package p
`
	noConcurrency := `// Package p implements P2.
package p
`
	good := `// Package p implements the P2 symbolic-execution search.
//
// Concurrency: safe for concurrent use.
package p
`
	for name, tc := range map[string]struct {
		src  string
		path string
		want int
	}{
		"undocumented":   {undocumented, "octopocs/internal/p", 1},
		"no phase":       {noPhase, "octopocs/internal/p", 1},
		"no concurrency": {noConcurrency, "octopocs/internal/p", 1},
		"good":           {good, "octopocs/internal/p", 0},
		"not internal":   {undocumented, "octopocs/cmd/p", 0},
	} {
		t.Run(name, func(t *testing.T) {
			diags := runFixture(t, tc.path, tc.src, []*Analyzer{PhaseDoc})
			if len(diags) != tc.want {
				t.Errorf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
	mainPkg := `package main
func main() {}
`
	if diags := runFixture(t, "octopocs/internal/tool", mainPkg, []*Analyzer{PhaseDoc}); len(diags) != 0 {
		t.Errorf("package main flagged: %v", diags)
	}
}

// TestRepoIsClean runs the whole suite over every internal package, one
// subtest per package: the shipped tree must produce zero findings, so a
// regression in any contract, the phasedoc documentation contract
// included, fails this test even before CI's vettool step runs.
func TestRepoIsClean(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	internal := filepath.Dir(filepath.Dir(self))
	entries, err := os.ReadDir(internal)
	if err != nil {
		t.Fatalf("read %s: %v", internal, err)
	}
	checked := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := e.Name()
		t.Run(pkg, func(t *testing.T) {
			dir := filepath.Join(internal, pkg)
			diags, err := RunDir(dir, "octopocs/internal/"+pkg, All)
			if err != nil {
				t.Fatalf("RunDir %s: %v", dir, err)
			}
			for _, d := range diags {
				t.Errorf("%s", d)
			}
		})
		checked++
	}
	if checked < 15 {
		t.Fatalf("only %d internal packages found; expected the full engine room", checked)
	}
}
