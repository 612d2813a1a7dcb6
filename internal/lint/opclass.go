package lint

import (
	"go/ast"
	"strings"
)

// opClassScope names the interpreter-shaped packages whose ISA switches
// OpClass audits: the ones that give every opcode a meaning (the concrete
// VM, the symbolic executor), a transfer function (abstract interpretation,
// the one source of static branch folds), or a check (isa's Link and Check,
// and mirstatic's read-before-write warnings and call-graph reachability).
var opClassScope = []string{"internal/absint", "internal/isa", "internal/mirstatic", "internal/vm", "internal/symex"}

// opClassFamily is one closed constant family: its members, the package
// that declares them (matched by package name in a selector `pkg.Name`, and
// by bare name inside that package), and the packages whose switches over
// it OpClass audits (nil: every package).
type opClassFamily struct {
	pkg     string
	home    string // import-path suffix of the declaring package
	members []string
	scope   []string
}

// opClassFamilies hardcodes the constant families by qualified name. The
// analyzer is purely syntactic (no go/types), so membership is decided by
// the constant's name; the lists must be kept in sync with internal/isa
// and internal/core, which the opclass tests cross-check against the real
// packages. The ISA families are audited in the interpreter-shaped
// packages; the verdict and reason families everywhere, because every
// layer that reports, counts or renders a verdict switches over them.
var opClassFamilies = map[string]opClassFamily{
	"isa.Op": {"isa", "internal/isa", []string{
		"OpConst", "OpMov", "OpBin", "OpBinImm", "OpCmp", "OpCmpImm",
		"OpLoad", "OpStore", "OpJmp", "OpBr", "OpCall", "OpCallInd",
		"OpRet", "OpSyscall", "OpTrap",
	}, opClassScope},
	"isa.BinOp": {"isa", "internal/isa", []string{
		"Add", "Sub", "Mul", "Div", "Mod", "And", "Or", "Xor", "Shl", "Shr",
	}, opClassScope},
	"isa.CmpOp": {"isa", "internal/isa", []string{
		"Eq", "Ne", "Lt", "Le", "Gt", "Ge", "SLt", "SLe",
	}, opClassScope},
	"isa.Sys": {"isa", "internal/isa", []string{
		"SysOpen", "SysRead", "SysSeek", "SysTell", "SysSize", "SysMMap",
		"SysAlloc", "SysFree", "SysWrite", "SysExit", "SysArgRead", "SysArgLen",
	}, opClassScope},
	"core.Verdict": {"core", "internal/core", []string{
		"VerdictTriggered", "VerdictNotTriggerable", "VerdictFailure", "VerdictTriggeredByFuzzing",
	}, nil},
	"core.Reason": {"core", "internal/core", []string{
		"ReasonNone", "ReasonEpMissing", "ReasonEpNotCalled", "ReasonProgramDead",
		"ReasonLoopDead", "ReasonParamMismatch", "ReasonUnsat", "ReasonCFGUnresolved",
		"ReasonNoCrash", "ReasonBudget", "ReasonStaticUnreachable",
	}, nil},
}

// opClassMember maps each qualified constant name ("isa.Add") to its
// family. Built once; the families of one package have disjoint member
// names.
var opClassMember = func() map[string]string {
	m := make(map[string]string)
	for fam, f := range opClassFamilies {
		for _, name := range f.members {
			m[f.pkg+"."+name] = fam
		}
	}
	return m
}()

// OpClass checks that every switch over a closed constant family — the ISA
// opcode families in the interpreter-shaped packages, the verification
// verdicts and reasons everywhere — is either exhaustive over that family
// or carries an explicit default clause. A new opcode added to internal/isa
// then fails the lint in every transfer function that silently ignores it,
// instead of miscomputing — the abstract interpreter must widen to ⊤, the
// VM must trap, the symbolic executor must concretize — and a new verdict
// fails it in every renderer, counter and gate that would drop it. The
// check is syntactic: a switch participates when one of its case
// expressions names a member, as `isa.<Name>` or `core.<Name>`, or by bare
// name inside the declaring package.
var OpClass = &Analyzer{
	Name: "opclass",
	Doc: "check that switches over ISA opcode families (isa.Op, isa.BinOp, " +
		"isa.CmpOp, isa.Sys) and over core.Verdict and core.Reason are " +
		"exhaustive or carry an explicit default clause",
	Run: runOpClass,
}

func runOpClass(pass *Pass) error {
	// go vet names a package's test variant "path [path.test]".
	path, _, _ := strings.Cut(pass.ImportPath, " ")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			family := ""
			covered := map[string]bool{}
			hasDefault := false
			for _, c := range sw.Body.List {
				cc := c.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if name, ok := constName(e, f.Name.Name, path); ok {
						if fam, known := opClassMember[name]; known {
							family = fam
							covered[name] = true
						}
					}
				}
			}
			if family == "" || hasDefault || !inScope(path, opClassFamilies[family].scope) {
				return true
			}
			fam := opClassFamilies[family]
			var missing []string
			for _, name := range fam.members {
				if !covered[fam.pkg+"."+name] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Switch, "switch over %s covers %d of %d constants and has no default clause (missing: %s)",
					family, len(covered), len(fam.members), strings.Join(missing, ", "))
			}
			return true
		})
	}
	return nil
}

// inScope reports whether the package at path is audited for a family
// with the given scope; a nil scope covers every package.
func inScope(path string, scope []string) bool {
	if scope == nil {
		return true
	}
	for _, s := range scope {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// constName qualifies a case expression naming a family constant: the
// selector `pkg.<Name>` as written, or a bare `<Name>` inside a declaring
// package (package clause pkgName, import path path) as `pkgName.<Name>`.
func constName(e ast.Expr, pkgName, path string) (string, bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		if !ok {
			return "", false
		}
		return pkg.Name + "." + e.Sel.Name, true
	case *ast.Ident:
		for _, f := range opClassFamilies {
			if f.pkg == pkgName && strings.HasSuffix(path, f.home) {
				return pkgName + "." + e.Name, true
			}
		}
	}
	return "", false
}
