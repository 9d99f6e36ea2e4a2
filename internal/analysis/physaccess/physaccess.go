// Package physaccess implements the memlint analyzer guarding the
// simulated physical memory's access discipline (DESIGN.md §1, §5.1): the
// machine's RAM is one byte slice owned by internal/mem, and every frame
// access outside that package must go through the Memory API
// (Read/Write/Zero/CopyPage/FindAll) or the frame metadata, so that the
// simulator can keep frame state, reverse maps and zeroing policies
// truthful.
//
// The one sanctioned alias into the array is Memory.View, which models "the
// attacker captured these bytes" without doubling memory. Two rules follow:
//
//  1. Calling View at all is restricted to the disclosure-modelling
//     packages (policy.PhysRead in internal/analysis/policy: the scanner,
//     the key finders, the attack drivers and the public facade). Anyone
//     else indexing or slicing the physical array is bypassing the frame
//     APIs.
//  2. A view is read-only everywhere: writing through it (element
//     assignment, copy-into, clear, append-in-place) would mutate physical
//     memory behind the kernel's back, so it is flagged in every package.
//
// Views are tracked flow-sensitively: a forward may-analysis over the
// function's CFG (internal/analysis/dataflow) taints variables assigned
// from a View call or re-sliced from a tracked view, per control-flow
// path. A variable that aliases a view in one branch is not treated as a
// view in the sibling branch — only at and after the join.
package physaccess

import (
	"go/ast"
	"go/types"

	"memshield/internal/analysis"
	"memshield/internal/analysis/dataflow"
	"memshield/internal/analysis/policy"
)

// Analyzer is the physaccess analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "physaccess",
	Doc: "restrict direct access to the simulated physical-memory array to " +
		"internal/mem and the disclosure-modelling packages; views are read-only",
	Run: run,
}

// viewFullName is the go/types full name of the sanctioned aliasing API.
const viewFullName = "(*memshield/internal/mem.Memory).View"

func run(pass *analysis.Pass) error {
	if pass.PkgPath == "memshield/internal/mem" ||
		pass.PkgPath == "memshield/internal/mem_test" {
		return nil
	}
	c := &checker{
		pass:    pass,
		mayView: policy.Allowed(pass.PkgPath, policy.PhysRead),
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			c.checkBody(fd.Body, nil)
			return true
		})
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	mayView bool
}

// facts is the taint set: variables currently aliasing the physical array.
type facts = dataflow.Facts[*types.Var]

// isViewCall reports whether e is a call to Memory.View.
func (c *checker) isViewCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.FuncObj(c.pass.TypesInfo, call)
	return fn != nil && fn.FullName() == viewFullName
}

// baseVar unwraps parens and slice expressions down to the variable an
// expression reads, or nil.
func (c *checker) baseVar(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := c.pass.TypesInfo.ObjectOf(x).(*types.Var)
			return v
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isTainted decides whether an expression aliases the physical array under
// the given facts.
func (c *checker) isTainted(e ast.Expr, fs facts) bool {
	if c.isViewCall(e) {
		return true
	}
	v := c.baseVar(e)
	return v != nil && fs.Has(v)
}

// transfer is the gen-only view-taint transfer for one CFG node. Like
// the key-taint engine's, it inspects the full subtree including
// function-literal bodies, so closures that re-alias a captured view keep
// it tainted after the literal.
func (c *checker) transfer(n ast.Node, fs facts) {
	dataflow.Inspect(n, func(m ast.Node) bool {
		assign, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		taintLHS := func(lhs ast.Expr) {
			if v := c.baseVar(lhs); v != nil {
				fs.Add(v)
			}
		}
		switch {
		case len(assign.Lhs) == len(assign.Rhs):
			for i, rhs := range assign.Rhs {
				if c.isTainted(rhs, fs) {
					taintLHS(assign.Lhs[i])
				}
			}
		case len(assign.Rhs) == 1:
			// v, err := m.View(...): the data result is Lhs[0].
			if c.isViewCall(assign.Rhs[0]) {
				taintLHS(assign.Lhs[0])
			}
		}
		return true
	})
}

// checkBody runs the dataflow pass over one function body. seed carries a
// closure's captured taint (nil for top-level functions).
//
// Deferred function literals execute at function exit, so their bodies
// are analyzed in a dedicated exit-block pass under the exit block's
// entry facts rather than the registration-point facts: a deferred
// closure writing through a view taken after the defer statement would
// otherwise escape the check. Argument expressions of the deferred call
// are still checked at the DeferStmt node.
func (c *checker) checkBody(body *ast.BlockStmt, seed facts) {
	cfg := dataflow.New(body)
	ins := dataflow.Forward(cfg, seed, c.transfer)
	deferred := map[*ast.FuncLit]bool{}
	for _, d := range cfg.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			deferred[lit] = true
		}
	}
	dataflow.Walk(cfg, ins, c.transfer, func(n ast.Node, fs facts) {
		c.visit(n, fs, deferred)
	})
	exit := ins[cfg.Exit.Index]
	for _, d := range cfg.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			c.checkBody(lit.Body, exit.Clone())
		}
	}
}

// visit reports violations inside one CFG node under its entry facts.
// Function literals get their own recursive checkBody seeded with the
// facts at their occurrence — except deferred literals, which the
// exit-block pass analyzes under exit facts.
func (c *checker) visit(n ast.Node, fs facts, deferred map[*ast.FuncLit]bool) {
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if !deferred[m] {
				c.checkBody(m.Body, fs.Clone())
			}
			return false
		case *ast.CallExpr:
			if !c.mayView && c.isViewCall(m) {
				c.pass.Reportf(m.Pos(), "Memory.View aliases the physical-memory array; "+
					"outside the disclosure packages use Memory.Read or the frame APIs")
			}
			switch name := analysis.BuiltinName(c.pass.TypesInfo, m); name {
			case "copy", "append":
				if len(m.Args) > 0 && c.isTainted(m.Args[0], fs) {
					c.pass.Reportf(m.Pos(), "%s writes through a physical-memory view; "+
						"views are read-only — use Memory.Write to mutate simulated RAM",
						name)
				}
			case "clear":
				if len(m.Args) == 1 && c.isTainted(m.Args[0], fs) {
					c.pass.Reportf(m.Pos(), "clear writes through a physical-memory view; "+
						"views are read-only — use Memory.Zero to scrub simulated RAM")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if ok && c.isTainted(idx.X, fs) {
					c.pass.Reportf(lhs.Pos(), "element assignment writes through a "+
						"physical-memory view; views are read-only — use Memory.Write")
				}
			}
		}
		return true
	})
}
