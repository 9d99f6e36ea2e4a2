// Package physaccess implements the memlint analyzer guarding the
// simulated physical memory's access discipline (DESIGN.md §1, §5.1): the
// machine's RAM is one byte slice owned by internal/mem, and every frame
// access outside that package must go through the Memory API
// (Read/Write/Zero/CopyPage/FindAll) or the frame metadata, so that the
// simulator can keep frame state, reverse maps and zeroing policies
// truthful.
//
// The one sanctioned alias into the array is Memory.View, which models "the
// attacker captured these bytes" without doubling memory. Three rules
// follow:
//
//  1. Calling View at all is restricted to the disclosure-modelling
//     packages (policy.PhysRead in internal/analysis/policy: the scanner,
//     the key finders, the attack drivers and the public facade). Anyone
//     else indexing or slicing the physical array is bypassing the frame
//     APIs.
//  2. A view is read-only everywhere: writing through it (element
//     assignment, copy-into, clear, append-in-place) would mutate physical
//     memory behind the kernel's back, so it is flagged in every package.
//  3. A view never leaves the function that took it: it is not returned,
//     stored in a field, a global, a map, a slice or through a pointer,
//     sent on a channel, passed to a goroutine or captured by a closure.
//     The array may be a mapping that the memory's finalizer unmaps, and
//     Release hands it to the next machine (DESIGN.md §12), so a view must
//     not outlive the code that keeps its memory reachable; a capture that
//     must outlive it is a copy (the public facade's DumpMemory copies). A
//     deferred closure runs before its function returns, so it may read a
//     view. Passing a view down as a call argument is allowed.
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
			c.checkBody(fd.Body, fd.Type.Results, nil)
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

// checkBody runs the dataflow pass over one function body. results is the
// function's result list, for bare returns of named results; seed carries
// a closure's captured taint (nil for top-level functions).
//
// Deferred function literals execute at function exit, so their bodies
// are analyzed in a dedicated exit-block pass under the exit block's
// entry facts rather than the registration-point facts: a deferred
// closure writing through a view taken after the defer statement would
// otherwise escape the check. Argument expressions of the deferred call
// are still checked at the DeferStmt node.
func (c *checker) checkBody(body *ast.BlockStmt, results *ast.FieldList, seed facts) {
	cfg := dataflow.New(body)
	ins := dataflow.Forward(cfg, seed, c.transfer)
	deferred := map[*ast.FuncLit]bool{}
	for _, d := range cfg.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			deferred[lit] = true
		}
	}
	dataflow.Walk(cfg, ins, c.transfer, func(n ast.Node, fs facts) {
		c.visit(n, fs, results, deferred)
	})
	exit := ins[cfg.Exit.Index]
	for _, d := range cfg.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			c.checkBody(lit.Body, lit.Type.Results, exit.Clone())
		}
	}
}

// visit reports violations inside one CFG node under its entry facts.
// Function literals get their own recursive checkBody seeded with the
// facts at their occurrence — except deferred literals, which the
// exit-block pass analyzes under exit facts.
func (c *checker) visit(n ast.Node, fs facts, results *ast.FieldList, deferred map[*ast.FuncLit]bool) {
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if !deferred[m] {
				c.checkCapture(m, fs)
				c.checkBody(m.Body, m.Type.Results, fs.Clone())
			}
			return false
		case *ast.ReturnStmt:
			c.checkReturn(m, fs, results)
		case *ast.SendStmt:
			if c.isTainted(m.Value, fs) {
				c.escape(m.Value, "sent on a channel")
			}
		case *ast.GoStmt:
			for _, arg := range m.Call.Args {
				if c.isTainted(arg, fs) {
					c.escape(arg, "passed to a goroutine")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range m.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if c.isTainted(elt, fs) {
					c.escape(elt, "stored in "+c.container(m))
				}
			}
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
				if name == "append" && !m.Ellipsis.IsValid() {
					for _, arg := range m.Args[1:] {
						if c.isTainted(arg, fs) {
							c.escape(arg, "stored in a slice")
						}
					}
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
			c.checkStore(m, fs)
		}
		return true
	})
}

// escape reports a view leaving the function that took it.
func (c *checker) escape(at ast.Node, how string) {
	c.pass.Reportf(at.Pos(), "physical-memory view escapes: %s; a view must not "+
		"outlive the function that took it — copy the bytes out", how)
}

// checkReturn flags a returned view, including a named result that a bare
// return hands back.
func (c *checker) checkReturn(ret *ast.ReturnStmt, fs facts, results *ast.FieldList) {
	for _, r := range ret.Results {
		if c.isTainted(r, fs) {
			c.escape(r, "returned")
		}
	}
	if len(ret.Results) > 0 || results == nil {
		return
	}
	for _, field := range results.List {
		for _, name := range field.Names {
			if v, ok := c.pass.TypesInfo.ObjectOf(name).(*types.Var); ok && fs.Has(v) {
				c.escape(ret, "returned as result "+name.Name)
			}
		}
	}
}

// checkStore flags an assignment of a view to anything but a local
// variable.
func (c *checker) checkStore(assign *ast.AssignStmt, fs facts) {
	for i, lhs := range assign.Lhs {
		var tainted bool
		switch {
		case len(assign.Lhs) == len(assign.Rhs):
			tainted = c.isTainted(assign.Rhs[i], fs)
		case len(assign.Rhs) == 1:
			tainted = i == 0 && c.isViewCall(assign.Rhs[0])
		}
		if !tainted {
			continue
		}
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if v, ok := c.pass.TypesInfo.ObjectOf(lhs).(*types.Var); ok && isGlobal(v) {
				c.escape(lhs, "stored in a global")
			}
		case *ast.SelectorExpr:
			if v, ok := c.pass.TypesInfo.ObjectOf(lhs.Sel).(*types.Var); ok && isGlobal(v) {
				c.escape(lhs, "stored in a global")
			} else {
				c.escape(lhs, "stored in a field")
			}
		case *ast.IndexExpr:
			if _, ok := c.pass.TypesInfo.TypeOf(lhs.X).Underlying().(*types.Map); ok {
				c.escape(lhs, "stored in a map")
			} else {
				c.escape(lhs, "stored in a slice")
			}
		case *ast.StarExpr:
			c.escape(lhs, "stored through a pointer")
		}
	}
}

// isGlobal reports whether v is a package-level variable.
func isGlobal(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// container names what a composite literal stores its elements in.
func (c *checker) container(lit *ast.CompositeLit) string {
	switch c.pass.TypesInfo.TypeOf(lit).Underlying().(type) {
	case *types.Struct:
		return "a field"
	case *types.Map:
		return "a map"
	default:
		return "a slice"
	}
}

// checkCapture flags a function literal that refers to a variable holding
// a view where the literal occurs.
func (c *checker) checkCapture(lit *ast.FuncLit, fs facts) {
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && fs.Has(v) && !seen[v] {
			seen[v] = true
			c.escape(id, "captured by a closure")
		}
		return true
	})
}
