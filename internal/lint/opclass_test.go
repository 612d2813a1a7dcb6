package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestOpClassFlagsPartialSwitch checks the core finding: a switch over an
// ISA family that misses constants and has no default clause is flagged,
// naming the missing members.
func TestOpClassFlagsPartialSwitch(t *testing.T) {
	src := `package p
import "octopocs/internal/isa"
func f(op isa.BinOp) int {
	switch op {
	case isa.Add:
		return 1
	case isa.Sub:
		return 2
	}
	return 0
}
`
	diags := runFixture(t, "octopocs/internal/vm", src, []*Analyzer{OpClass})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "isa.BinOp") || !strings.Contains(msg, "Shl") {
		t.Errorf("diagnostic does not name the family and missing members: %s", msg)
	}
}

// TestOpClassAcceptsDefaultAndExhaustive checks the two compliant shapes:
// an explicit default clause, and full coverage of the family.
func TestOpClassAcceptsDefaultAndExhaustive(t *testing.T) {
	withDefault := `package p
import "octopocs/internal/isa"
func f(op isa.CmpOp) int {
	switch op {
	case isa.Eq:
		return 1
	default:
		return 0
	}
}
`
	exhaustive := `package p
import "octopocs/internal/isa"
func f(op isa.CmpOp) int {
	switch op {
	case isa.Eq, isa.Ne, isa.Lt, isa.Le:
		return 1
	case isa.Gt, isa.Ge, isa.SLt, isa.SLe:
		return 2
	}
	return 0
}
`
	for name, src := range map[string]string{"default": withDefault, "exhaustive": exhaustive} {
		if diags := runFixture(t, "octopocs/internal/symex", src, []*Analyzer{OpClass}); len(diags) != 0 {
			t.Errorf("%s: got diagnostics, want none: %v", name, diags)
		}
	}
}

// TestOpClassScope checks that non-ISA switches and out-of-scope packages
// are left alone.
func TestOpClassScope(t *testing.T) {
	partial := `package p
import "octopocs/internal/isa"
func f(op isa.Op) int {
	switch op {
	case isa.OpJmp:
		return 1
	}
	return 0
}
`
	if diags := runFixture(t, "octopocs/internal/corpus", partial, []*Analyzer{OpClass}); len(diags) != 0 {
		t.Errorf("out-of-scope package flagged: %v", diags)
	}
	nonISA := `package p
func f(x int) int {
	switch x {
	case 1:
		return 1
	}
	return 0
}
`
	if diags := runFixture(t, "octopocs/internal/vm", nonISA, []*Analyzer{OpClass}); len(diags) != 0 {
		t.Errorf("non-ISA switch flagged: %v", diags)
	}
}

// TestOpClassFamiliesMatchISA cross-checks the hardcoded family lists
// against the real internal/isa declarations, so adding an opcode without
// updating the analyzer fails here instead of silently weakening the lint.
func TestOpClassFamiliesMatchISA(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	isaDir := filepath.Join(filepath.Dir(filepath.Dir(self)), "isa")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, isaDir, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", isaDir, err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Name != "isa" {
			continue
		}
		for _, f := range pkg.Files {
			for name := range f.Scope.Objects {
				declared[name] = true
			}
		}
	}
	for fam, f := range opClassFamilies {
		if f.pkg != "isa" {
			continue
		}
		for _, name := range f.members {
			if !declared[name] {
				t.Errorf("%s member %s is not declared in internal/isa", fam, name)
			}
		}
	}
	// The reverse direction: every isa constant that looks like a family
	// member (matches the naming scheme) must be in a list. Op*/Sys* prefixes
	// identify those families; BinOp and CmpOp members have no prefix, so
	// they are covered by the forward check plus the exhaustiveness of the
	// iota blocks (a new member shifts no existing value).
	for name := range declared {
		if strings.HasPrefix(name, "Op") && name != "Op" && !strings.HasPrefix(name, "Opt") {
			if opClassMember["isa."+name] != "isa.Op" {
				t.Errorf("isa.%s looks like an Op constant but is not in the opclass family list", name)
			}
		}
		if strings.HasPrefix(name, "Sys") && name != "Sys" {
			if opClassMember["isa."+name] != "isa.Sys" {
				t.Errorf("isa.%s looks like a Sys constant but is not in the opclass family list", name)
			}
		}
	}
}

// TestOpClassCoversVerdictsAndReasons checks the verdict and reason
// families everywhere, qualified outside internal/core and by bare name
// inside it: a partial switch without a default is flagged with its
// missing members, and an exhaustive or defaulted one is not.
func TestOpClassCoversVerdictsAndReasons(t *testing.T) {
	qualified := `package p
import "octopocs/internal/core"
func f(v core.Verdict) string {
	switch v {
	case core.VerdictTriggered:
		return "t"
	case core.VerdictNotTriggerable, core.VerdictFailure:
		return "n"
	}
	return ""
}
`
	diags := runFixture(t, "octopocs/internal/service", qualified, []*Analyzer{OpClass})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "core.Verdict") ||
		!strings.Contains(diags[0].Message, "VerdictTriggeredByFuzzing") {
		t.Errorf("partial qualified verdict switch: got %v, want one diagnostic naming VerdictTriggeredByFuzzing", diags)
	}

	inPackage := `package core
func g(r Reason) bool {
	switch r {
	case ReasonLoopDead, ReasonBudget:
		return true
	}
	return false
}
`
	diags = runFixture(t, "octopocs/internal/core", inPackage, []*Analyzer{OpClass})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "core.Reason") ||
		!strings.Contains(diags[0].Message, "ReasonStaticUnreachable") {
		t.Errorf("partial in-package reason switch: got %v, want one diagnostic naming ReasonStaticUnreachable", diags)
	}
	// The same bare names outside internal/core are some other package's
	// identifiers.
	if diags := runFixture(t, "octopocs/internal/corpus", strings.Replace(inPackage, "package core", "package corpus", 1), []*Analyzer{OpClass}); len(diags) != 0 {
		t.Errorf("bare names outside internal/core flagged: %v", diags)
	}

	compliant := map[string]string{
		"default": `package p
import "octopocs/internal/core"
func f(r core.Reason) bool {
	switch r {
	case core.ReasonNone:
		return false
	default:
		return true
	}
}
`,
		"exhaustive": `package core
func f(v Verdict) int {
	switch v {
	case VerdictTriggered, VerdictTriggeredByFuzzing:
		return 1
	case VerdictNotTriggerable, VerdictFailure:
		return 0
	}
	return -1
}
`,
	}
	for name, src := range compliant {
		if diags := runFixture(t, "octopocs/internal/core", src, []*Analyzer{OpClass}); len(diags) != 0 {
			t.Errorf("%s: got diagnostics, want none: %v", name, diags)
		}
	}
}

// TestOpClassFamiliesMatchCore cross-checks the verdict and reason lists
// against the constants internal/core declares with those types, in both
// directions, so a new verdict or reason cannot escape the lint.
func TestOpClassFamiliesMatchCore(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	coreDir := filepath.Join(filepath.Dir(filepath.Dir(self)), "core")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, coreDir, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", coreDir, err)
	}
	declared := map[string][]string{} // type name → constants
	for _, pkg := range pkgs {
		if pkg.Name != "core" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				typ := ""
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if id, ok := vs.Type.(*ast.Ident); ok {
						typ = id.Name
					} else if vs.Type != nil || len(vs.Values) > 0 {
						typ = "" // an untyped or other-typed constant
					}
					for _, n := range vs.Names {
						declared[typ] = append(declared[typ], n.Name)
					}
				}
			}
		}
	}
	for _, typ := range []string{"Verdict", "Reason"} {
		got := slices.Clone(declared[typ])
		want := slices.Clone(opClassFamilies["core."+typ].members)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("core.%s constants %v, opclass family %v", typ, got, want)
		}
	}
}
