// Package sealwindow statically proves the sealed-window discipline
// (DESIGN.md §6): plaintext key bytes may only be read inside a
// //memlint:window callback (seal.Region.WithOpen's unseal→op→reseal
// window), and nothing read inside a window may alias past its end — no
// store to a variable declared outside the callback, no store through a
// pointer whose points-to set outlives the callback, no channel send,
// no goroutine capture, no return, no hand-off to a callee that retains
// its argument.
//
// Scope: the analyzer checks functions that use windows — ones that
// call a //memlint:window-marked function directly or through a locally
// resolvable function value. Inside such a function, every call to a
// //memlint:source-marked function must sit inside a window callback
// (check a), and nothing the keytaint engine finds tainted by a read
// inside a window may escape it (checks b and c, with escapes judged
// by the dataflow points-to layer).
// Functions that never open a window are out of scope here: their key
// handling is the keylifetime verifier's subject (zeroize-on-all-paths),
// and a package whose charter is the window mechanism itself carries the
// policy.OpenWindow permission.
//
// Approximations, all in the conservative direction for the discipline
// except the last: window taint is everything the callback reaches in
// any statement order, and a call's byte-slice results carry its
// arguments' taint whatever the callee's summary says; field paths
// truncate at depth 2, a deeper store tainting its nearest base (extra
// aliases, never missed ones); a call through an unresolvable function
// value widens (its arguments count as escaping); but a window-tainted
// argument passed to a resolvable callee is only flagged when that
// callee's escape summary retains it — unresolvable callees without
// bodies (stdlib) are trusted not to retain key bytes, the same trust
// keycopy extends.
package sealwindow

import (
	"go/ast"
	"go/token"
	"go/types"

	"memshield/internal/analysis"
	"memshield/internal/analysis/dataflow"
	"memshield/internal/analysis/keytaint"
	"memshield/internal/analysis/policy"
)

// Analyzer is the sealwindow entry point.
var Analyzer = &analysis.Analyzer{
	Name: "sealwindow",
	Doc: "prove plaintext key bytes are only read inside //memlint:window " +
		"callbacks and never alias past the window's end (DESIGN.md §6)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if policy.Allowed(pass.PkgPath, policy.OpenWindow) {
		return nil
	}
	if len(pass.Windows) == 0 {
		return nil
	}
	kt := keytaint.New(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fc := &funcChecker{pass: pass, kt: kt, decl: fd, fn: kt.Func(fd)}
			fc.check()
		}
	}
	return nil
}

// A windowCall is one call of a //memlint:window-marked function, with
// the callback argument it scopes.
type windowCall struct {
	call *ast.CallExpr
	cb   ast.Expr
}

// funcChecker verifies the window discipline inside one declaration.
type funcChecker struct {
	pass *analysis.Pass
	kt   *keytaint.Checker
	decl *ast.FuncDecl
	fn   *keytaint.Func
}

func (c *funcChecker) check() {
	info := c.pass.TypesInfo

	// Find window calls. The static pass catches direct calls; when a
	// window-marked function is referenced as a value anywhere in the
	// body, the points-to layer resolves indirect calls too.
	var wcalls []windowCall
	calleeIdents := map[*ast.Ident]bool{}
	windowValueUse := false
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calleeIdents[fun] = true
		case *ast.SelectorExpr:
			calleeIdents[fun.Sel] = true
		}
		if fn := analysis.FuncObj(info, call); fn != nil {
			if idx, ok := c.pass.Windows[fn.FullName()]; ok && idx < len(call.Args) {
				wcalls = append(wcalls, windowCall{call, call.Args[idx]})
			}
		}
		return true
	})
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			if _, marked := c.pass.Windows[fn.FullName()]; marked {
				windowValueUse = true
			}
		}
		return true
	})
	if windowValueUse {
		pt := c.fn.PointsTo()
		ast.Inspect(c.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || analysis.FuncObj(info, call) != nil {
				return true
			}
			fns, _, _ := pt.FuncTargets(call.Fun)
			for _, fn := range fns {
				if idx, ok := c.pass.Windows[fn.FullName()]; ok && idx < len(call.Args) {
					wcalls = append(wcalls, windowCall{call, call.Args[idx]})
					break
				}
			}
			return true
		})
	}
	if len(wcalls) == 0 {
		return
	}

	// Resolve each callback to the literal(s) that scope the window.
	var windows []*ast.FuncLit
	for _, wc := range wcalls {
		arg := ast.Unparen(wc.cb)
		if lit, ok := arg.(*ast.FuncLit); ok {
			windows = append(windows, lit)
			continue
		}
		fns, lits, complete := c.fn.PointsTo().FuncTargets(arg)
		if complete && len(fns) == 0 && len(lits) > 0 {
			windows = append(windows, lits...)
			continue
		}
		c.pass.Reportf(arg.Pos(),
			"sealed-window callback %s does not resolve to a function literal; "+
				"the window discipline cannot be verified statically (pass a func literal)",
			types.ExprString(arg))
	}

	// Check (a): every plaintext read sits inside some window callback.
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, isSource := c.sourceOf(call)
		if isSource && !inAnyWindow(call.Pos(), windows) {
			c.pass.Reportf(call.Pos(),
				"key bytes from %s read outside any sealed window; plaintext key "+
					"reads must happen inside a //memlint:window callback", name)
		}
		return true
	})

	// Checks (b) and (c): bytes tainted inside a window must not alias
	// past the callback's end. Only what the callback itself reads is
	// window taint. Every statement is judged under all the taint the
	// callback reaches in any order, with calls opaque: a store that runs
	// before the copy filling its buffer is still an alias, and a byte
	// slice a helper computes from window bytes is window bytes.
	for _, lit := range windows {
		lc := &litCheck{c: c, lit: lit, top: c.fn.Lit(lit).Opaque()}
		fs := lc.top.Reach()
		lc.top.Nodes(func(en *keytaint.Func, n ast.Node) { lc.visit(en, n, fs) })
	}
}

// sourceOf reports whether call reads plaintext key bytes: its callee
// (static, or locally resolved through a function value) carries a
// //memlint:source marker.
func (c *funcChecker) sourceOf(call *ast.CallExpr) (string, bool) {
	if fn := analysis.FuncObj(c.pass.TypesInfo, call); fn != nil {
		if _, ok := c.pass.Sources[fn.FullName()]; ok {
			return fn.Name(), true
		}
		return "", false
	}
	fns, _, _ := c.fn.PointsTo().FuncTargets(call.Fun)
	for _, fn := range fns {
		if _, ok := c.pass.Sources[fn.FullName()]; ok {
			return fn.Name(), true
		}
	}
	return "", false
}

func inAnyWindow(pos token.Pos, windows []*ast.FuncLit) bool {
	for _, w := range windows {
		if pos >= w.Pos() && pos <= w.End() {
			return true
		}
	}
	return false
}

// litCheck proves checks (b) and (c) for one window callback over the
// engine's forward taint, with escape verdicts drawn from the enclosing
// function's points-to solution and the callees' escape summaries.
type litCheck struct {
	c   *funcChecker
	lit *ast.FuncLit
	top *keytaint.Func // the callback's own body
}

func (lc *litCheck) declaredInside(v *types.Var) bool {
	return v.Pos() >= lc.lit.Pos() && v.Pos() <= lc.lit.End()
}

func (lc *litCheck) varOf(e ast.Expr) *types.Var {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		v, _ := lc.c.pass.TypesInfo.ObjectOf(id).(*types.Var)
		return v
	}
	return nil
}

// visit flags every statement in one CFG node that lets tainted bytes
// outlive the window. Returns escape only through the callback's own
// return statements, not a nested literal's.
func (lc *litCheck) visit(en *keytaint.Func, n ast.Node, fs keytaint.Facts) {
	tainted := func(e ast.Expr) bool {
		_, ok := en.Tainted(e, fs)
		return ok
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		lc.checkAssign(en, s, fs)
	case *ast.SendStmt:
		if tainted(s.Value) {
			lc.c.pass.Reportf(s.Pos(),
				"open-window key bytes escape the sealed window: sent on a channel")
		}
	case *ast.GoStmt:
		lc.checkGo(s, tainted)
		return
	case *ast.ReturnStmt:
		if en == lc.top {
			for _, r := range s.Results {
				if tainted(r) {
					lc.c.pass.Reportf(s.Pos(),
						"open-window key bytes escape the sealed window: returned from the callback")
					break
				}
			}
		}
	}
	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			lc.checkCallArgs(m, tainted)
		}
		return true
	})
}

// checkAssign flags stores that leave the window: an assignment to a
// variable declared outside the callback, or a store through a location
// whose points-to set may outlive it.
func (lc *litCheck) checkAssign(en *keytaint.Func, s *ast.AssignStmt, fs keytaint.Facts) {
	var results map[int]string
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			results = en.ResultTaint(call, fs)
		}
	}
	for i, lhs := range s.Lhs {
		t := false
		if len(s.Rhs) == len(s.Lhs) {
			_, t = en.Tainted(s.Rhs[i], fs)
		} else {
			_, t = results[i]
		}
		if !t {
			continue
		}
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v, _ := lc.c.pass.TypesInfo.ObjectOf(id).(*types.Var)
			if v != nil && !lc.declaredInside(v) {
				lc.c.pass.Reportf(s.Pos(),
					"open-window key bytes escape the sealed window: assigned to %s, "+
						"which is declared outside the callback", id.Name)
			}
			continue
		}
		// Compound store: x.F = k, x[i] = k, *p = k. The root variable
		// or the base's points-to set decides whether the cell outlives
		// the window.
		root := lc.varOf(rootExpr(lhs))
		if root != nil && !lc.declaredInside(root) {
			lc.c.pass.Reportf(s.Pos(),
				"open-window key bytes escape the sealed window: stored through %s, "+
					"which is declared outside the callback", root.Name())
			continue
		}
		if base, ok := storeBase(lhs); ok && lc.baseOutlives(base) {
			lc.c.pass.Reportf(s.Pos(),
				"open-window key bytes escape the sealed window: stored through %s, "+
					"whose pointees may outlive the callback", types.ExprString(base))
		}
	}
}

// baseOutlives consults the points-to solution: does the store base
// reach memory allocated outside the window (or already escaped)?
func (lc *litCheck) baseOutlives(base ast.Expr) bool {
	pt := lc.c.fn.PointsTo()
	var objs []*dataflow.PTObject
	if v := lc.varOf(base); v != nil {
		objs = pt.VarPointsTo(v)
	} else if o, ok := pt.ObjectsOf(base); ok {
		objs = o
	} else {
		// Unseen expression: cannot prove containment.
		return true
	}
	for _, o := range objs {
		if o.Kind == dataflow.PTOutside || o.Escaped() {
			return true
		}
		if o.Pos.IsValid() && (o.Pos < lc.lit.Pos() || o.Pos > lc.lit.End()) {
			return true
		}
	}
	return false
}

// checkGo flags goroutines that can still see tainted bytes after the
// window closes: tainted arguments, or a spawned literal capturing a
// tainted variable.
func (lc *litCheck) checkGo(s *ast.GoStmt, tainted func(ast.Expr) bool) {
	for _, a := range s.Call.Args {
		if tainted(a) {
			lc.c.pass.Reportf(s.Pos(),
				"open-window key bytes escape the sealed window: handed to a goroutine")
			return
		}
	}
	if glit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		captured := false
		ast.Inspect(glit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || captured {
				return !captured
			}
			if v, ok := lc.c.pass.TypesInfo.Uses[id].(*types.Var); ok && tainted(id) {
				if v.Pos() < glit.Pos() || v.Pos() > glit.End() {
					captured = true
				}
			}
			return true
		})
		if captured {
			lc.c.pass.Reportf(s.Pos(),
				"open-window key bytes escape the sealed window: captured by a goroutine")
		}
	}
}

// checkCallArgs flags tainted arguments handed to a callee whose escape
// summary retains them. Callees without bodies (stdlib) are trusted not
// to retain key bytes; unresolvable function values are keylifetime's
// subject.
func (lc *litCheck) checkCallArgs(call *ast.CallExpr, tainted func(ast.Expr) bool) {
	fn := analysis.FuncObj(lc.c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if _, isWindow := lc.c.pass.Windows[fn.FullName()]; isWindow {
		return // nested window: its callback is checked on its own
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	sum := lc.c.kt.Escapes(fn)
	if sum == nil || sum.Widened {
		return
	}
	for i, a := range call.Args {
		if !tainted(a) {
			continue
		}
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi < len(sum.ParamEscapes) && sum.ParamEscapes[pi] {
			lc.c.pass.Reportf(call.Pos(),
				"open-window key bytes escape the sealed window: passed to %s, "+
					"which retains its argument", fn.Name())
			return
		}
	}
}

// rootExpr strips selectors, indexes, stars and parens down to the
// innermost base expression.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return ast.Unparen(e)
		}
	}
}

// storeBase returns the expression whose pointees receive a compound
// store: the x of x.F / x[i] / *x.
func storeBase(lhs ast.Expr) (ast.Expr, bool) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return x.X, true
	case *ast.IndexExpr:
		return x.X, true
	case *ast.StarExpr:
		return x.X, true
	}
	return nil, false
}
