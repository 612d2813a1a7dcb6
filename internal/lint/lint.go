// Package lint is the repository's source-hygiene suite: a small,
// dependency-free analyzer framework plus the project's analyzers.
// PhaseDoc enforces the documentation contract of the engine room — every
// internal package must map itself to the paper phases P1–P4 and state its
// concurrency contract — CtxLoop guards the runtime packages against
// goroutine loops that can neither be cancelled nor woken, PanicGuard
// requires every launched goroutine to sit behind a recover boundary,
// JournalDoc keeps the provenance journal's event schema closed: every
// emitted event type must be an Ev* constant with a registry entry, and
// OpClass requires every switch over an ISA opcode family in the
// interpreter-shaped packages to be exhaustive or carry an explicit default
// clause. The suite runs two ways: as `go vet -vettool=octolint` in CI,
// and via RunDir in TestRepoIsClean, which checks every internal package
// under a plain `go test ./...`.
//
// Concurrency: analyses are read-only over parsed ASTs and keep no shared
// state; any number of Run calls may execute concurrently as long as each
// Pass value is confined to one goroutine.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned in the source tree.
type Diagnostic struct {
	Pos      token.Position // file:line:col of the offending node
	Analyzer string         // analyzer that produced the finding
	Message  string         // human-readable description
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package: the parsed files plus enough
// identity (import path) for analyzers to scope themselves. Report appends
// findings; a Pass must not be shared across goroutines.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	ImportPath string

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All is the suite: every analyzer octolint and the tests run.
var All = []*Analyzer{PhaseDoc, CtxLoop, PanicGuard, JournalDoc, OpClass}

// RunFiles runs the analyzers over an already-parsed package and returns
// the findings sorted by position.
func RunFiles(fset *token.FileSet, files []*ast.File, importPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Files: files, ImportPath: importPath, analyzer: a.Name, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunDir parses the non-test Go files of one directory and runs the
// analyzers over them. Test files (_test.go) are excluded: the contracts
// the suite enforces are about shipped code.
func RunDir(dir, importPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return RunFiles(fset, files, importPath, analyzers)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
