// Package keycopy implements the memlint analyzer that statically audits
// the paper's central hygiene rule (DESIGN.md §5.8, "exactly one copy"):
// private-key material must live in simulated physical memory, and the
// native Go heap may only ever hold it transiently — decode it, hand it to
// the simulated FS or heap, let it die. Any operation that duplicates key
// bytes or parks them in a long-lived native location creates a shadow
// copy the scanner can never see and the countermeasures can never scrub,
// silently invalidating every figure.
//
// Key-material sources (taint roots) are not hardcoded here: any function
// whose doc comment carries a `//memlint:source result=N` marker is a
// source, with result N tainted. The loader collects the markers from the
// declaring packages (internal/crypto/rsakey, internal/crypto/pemfile,
// internal/ssl today) while type-checking them, so a new key-material
// producer only has to mark itself.
//
// Taint comes from the keytaint engine, shared with keylifetime and
// sealwindow: flow-sensitive over each function's CFG (a variable
// tainted in one branch does not poison the sibling branch) and
// interprocedural (a helper that returns a view or a copy of key bytes
// returns key bytes; a source reached through a function value taints
// like the direct call). It follows assignment, re-slicing, append,
// copy and clones, and merges by union at joins and around loop back
// edges. Violations:
//
//   - bytes.Clone / slices.Clone of tainted bytes — an explicit second
//     native copy, flagged unconditionally;
//   - copy or append whose destination is long-lived (package-level
//     variable or struct field) with a tainted source;
//   - assigning or appending tainted bytes into a package-level variable
//     or struct field (slice escape into a long-lived location).
//
// Allowlisted via internal/analysis/policy (KeyMaterial): the source
// packages themselves (crypto/*, ssl), and the experimenter-side packages
// that by design retain search patterns or captures (internal/scan,
// internal/keyfinder). Test files are skipped — assertions on key bytes
// are not shipped code.
package keycopy

import (
	"go/ast"
	"go/types"

	"memshield/internal/analysis"
	"memshield/internal/analysis/dataflow"
	"memshield/internal/analysis/keytaint"
	"memshield/internal/analysis/policy"
)

// Analyzer is the keycopy analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "keycopy",
	Doc: "flag duplication or long-lived native-heap storage of private-key " +
		"material declared by //memlint:source markers (the paper's " +
		"\"exactly one copy\" audit, statically)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if policy.Allowed(pass.PkgPath, policy.KeyMaterial) {
		return nil
	}
	c := &checker{pass: pass}
	kt := keytaint.New(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			kt.Func(fd).Walk(nil, c.visit)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// cloneName reports a call to bytes.Clone or slices.Clone.
func (c *checker) cloneName(call *ast.CallExpr) string {
	fn := analysis.FuncObj(c.pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	switch fn.FullName() {
	case "bytes.Clone":
		return "bytes.Clone"
	case "slices.Clone":
		return "slices.Clone"
	}
	return ""
}

// longLivedTarget describes an expression naming a long-lived native-heap
// location: a package-level variable or a struct field (any depth), or ""
// when the expression is local.
func (c *checker) longLivedTarget(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if analysis.IsPkgLevel(c.pass.TypesInfo.ObjectOf(x)) {
				return "package-level variable " + x.Name
			}
			return ""
		case *ast.SelectorExpr:
			if v, ok := c.pass.TypesInfo.ObjectOf(x.Sel).(*types.Var); ok {
				if v.IsField() {
					return "struct field " + x.Sel.Name
				}
				if analysis.IsPkgLevel(v) {
					return "package-level variable " + x.Sel.Name
				}
			}
			return ""
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// visit reports every violation inside one CFG node under the engine's
// taint facts in force before it.
func (c *checker) visit(en *keytaint.Func, n ast.Node, fs keytaint.Facts) {
	tainted := func(e ast.Expr) bool {
		_, ok := en.Tainted(e, fs)
		return ok
	}
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if name := c.cloneName(m); name != "" && len(m.Args) == 1 && tainted(m.Args[0]) {
				c.pass.Reportf(m.Pos(), "%s duplicates private-key material on the native "+
					"heap; keep exactly one transient copy (DESIGN.md §5.8)", name)
			}
			if analysis.BuiltinName(c.pass.TypesInfo, m) == "copy" && len(m.Args) == 2 && tainted(m.Args[1]) {
				if dst := c.longLivedTarget(m.Args[0]); dst != "" {
					c.pass.Reportf(m.Pos(), "copy writes private-key material into "+
						"long-lived %s; key bytes must stay transient on the native heap", dst)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range m.Rhs {
				if len(m.Lhs) != len(m.Rhs) || !tainted(rhs) {
					continue
				}
				if dst := c.longLivedTarget(m.Lhs[i]); dst != "" {
					c.pass.Reportf(m.Lhs[i].Pos(), "private-key material escapes into "+
						"long-lived %s; key bytes must stay transient on the native heap", dst)
				}
			}
		}
		return true
	})
}
