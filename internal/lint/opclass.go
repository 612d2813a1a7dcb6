package lint

import (
	"go/ast"
	"strings"
)

// opClassScope names the interpreter-shaped packages whose ISA switches
// OpClass audits: the ones that give every opcode a meaning (the concrete
// VM, the symbolic executor), a transfer function (abstract interpretation,
// the one source of static branch folds), or a check (the MIR verifier and
// call-graph reachability of mirstatic).
var opClassScope = []string{"internal/absint", "internal/mirstatic", "internal/vm", "internal/symex"}

// opClassFamilies hardcodes the ISA constant families by name. The analyzer
// is purely syntactic (no go/types), so membership is decided by the
// selector `isa.<Name>`; the lists must be kept in sync with internal/isa,
// which the opclass test cross-checks against the real package.
var opClassFamilies = map[string][]string{
	"isa.Op": {
		"OpConst", "OpMov", "OpBin", "OpBinImm", "OpCmp", "OpCmpImm",
		"OpLoad", "OpStore", "OpJmp", "OpBr", "OpCall", "OpCallInd",
		"OpRet", "OpSyscall", "OpTrap",
	},
	"isa.BinOp": {
		"Add", "Sub", "Mul", "Div", "Mod", "And", "Or", "Xor", "Shl", "Shr",
	},
	"isa.CmpOp": {
		"Eq", "Ne", "Lt", "Le", "Gt", "Ge", "SLt", "SLe",
	},
	"isa.Sys": {
		"SysOpen", "SysRead", "SysSeek", "SysTell", "SysSize", "SysMMap",
		"SysAlloc", "SysFree", "SysWrite", "SysExit", "SysArgRead", "SysArgLen",
	},
}

// opClassMember maps each constant name to its family. Built once; the
// four families have disjoint member names.
var opClassMember = func() map[string]string {
	m := make(map[string]string)
	for fam, members := range opClassFamilies {
		for _, name := range members {
			m[name] = fam
		}
	}
	return m
}()

// OpClass checks that every switch over an ISA opcode family in the
// interpreter-shaped packages is either exhaustive over that family or
// carries an explicit default clause. A new opcode added to internal/isa
// then fails the lint in every transfer function that silently ignores it,
// instead of miscomputing — the abstract interpreter must widen to ⊤, the
// VM must trap, the symbolic executor must concretize. The check is
// syntactic: a switch participates when one of its case expressions is a
// selector constant `isa.<Name>` from a known family.
var OpClass = &Analyzer{
	Name: "opclass",
	Doc: "check that switches over ISA opcode families (isa.Op, isa.BinOp, " +
		"isa.CmpOp, isa.Sys) are exhaustive or carry an explicit default clause",
	Run: runOpClass,
}

func runOpClass(pass *Pass) error {
	inScope := false
	for _, s := range opClassScope {
		if strings.HasSuffix(pass.ImportPath, s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
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
					if name, ok := isaSelector(e); ok {
						if fam, known := opClassMember[name]; known {
							family = fam
							covered[name] = true
						}
					}
				}
			}
			if family == "" || hasDefault {
				return true
			}
			var missing []string
			for _, name := range opClassFamilies[family] {
				if !covered[name] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Switch, "switch over %s covers %d of %d constants and has no default clause (missing: %s)",
					family, len(covered), len(opClassFamilies[family]), strings.Join(missing, ", "))
			}
			return true
		})
	}
	return nil
}

// isaSelector matches the expression form `isa.<Name>` and returns the
// constant name.
func isaSelector(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "isa" {
		return "", false
	}
	return sel.Sel.Name, true
}
