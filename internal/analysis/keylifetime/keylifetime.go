// Package keylifetime implements the memlint analyzer that proves every
// key-material buffer is zeroized before it goes out of reach — the
// static form of the paper's core discipline (DESIGN.md §6): a private
// key may live in at most one place, and every transient copy must be
// scrubbed on every control-flow path, not just the happy one.
//
// It is the must-analysis complement to keycopy's may-analysis. keycopy
// asks "can key bytes reach a long-lived location?" (forward, union at
// joins — one bad path suffices to report). keylifetime asks "is this
// buffer definitely released before function exit?" (backward,
// intersection at joins — one bad path suffices to fail). A value is
// tainted when it flows from a //memlint:source function; it is released
// by reaching a //memlint:sink function (canonically scrub.Bytes), the
// clear() builtin, a callee whose computed summary zeroizes the
// parameter on all paths, or a return statement — returning transfers
// the obligation to the caller, whose own keylifetime pass sees the
// callee's tainted-result summary and carries it forward.
//
// Both facts come from the keytaint engine, so the analysis is
// interprocedural (per-function summaries with provenance chains,
// iterated to fixpoint for recursion, widened for unknown bodies and
// incomplete points-to target sets) and field-sensitive to two levels:
// k.D and k.Primes are distinct obligations, so zeroizing one field
// never silently discharges another.
//
// Obligations attach to the two shapes key material takes in this
// codebase: byte slices (released by scrub.Bytes / clear) and
// *math/big.Int values (released by scrub.Big — a big.Int built from key
// bytes holds the same limbs the slice did). Ownership also transfers
// out of a function by returning the value — directly, or packed in a
// composite literal / address-of — and by sending it on a channel; both
// hand the release obligation to the consumer. Function literals are
// analyzed wherever they occur, including immediately-invoked and
// go-spawned closures, so a key minted inside `go func() { ... }()` is
// checked like any other body.
//
// Accepted approximations, chosen to keep the checker decidable and the
// fix idioms honest: slicing is whole-backing-array aliasing (releasing
// b after b := a[2:] credits a); a deferred closure's zeroize of a
// capture counts only for single-assignment captures (the closure reads
// the variable at exit time); sink calls on an indexed element xs[i]
// release the per-element fact xs[*] — the sanctioned idiom is a loop
// scrubbing every element.
package keylifetime

import (
	"go/ast"

	"memshield/internal/analysis"
	"memshield/internal/analysis/keytaint"
	"memshield/internal/analysis/policy"
)

// Analyzer is the keylifetime analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "keylifetime",
	Doc: "prove every //memlint:source-tainted buffer reaches a zeroizing " +
		"release (//memlint:sink, clear, a zeroizing callee, or a return " +
		"transferring the obligation) on every path to function exit",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Packages whose charter is retaining key bytes (the scanner, the key
	// finders, the attacks) are exempt wholesale; everyone else — the
	// crypto stack included — must scrub transient copies.
	if policy.Allowed(pass.PkgPath, policy.RetainKeys) {
		return nil
	}
	c := &checker{pass: pass, kt: keytaint.New(pass)}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// No seed: parameters are the caller's obligation, tracked
			// through summaries.
			c.kt.Func(fd).Walk(nil, c.visit)
		}
	}
	return nil
}

// checker reports every obligation the engine's backward release pass
// cannot discharge, node by node under the forward taint facts.
type checker struct {
	pass *analysis.Pass
	kt   *keytaint.Checker
}

// Expression contexts for the anonymous-source-call scan: a call whose
// results carry key material is fine as the direct RHS of an assignment
// (the binding obligation owns it), as a return operand (ownership
// transfer) or at a zeroizing argument position; anywhere else the copy
// is anonymous — nothing can ever scrub it.
const (
	ctxLeak = iota
	ctxBound
	ctxReturn
	ctxSink
)

// throughCtx propagates an ownership-transferring context (return / send)
// through a value-carrying wrapper expression; every other context
// degrades to leak.
func throughCtx(ctx int) int {
	if ctx == ctxReturn {
		return ctxReturn
	}
	return ctxLeak
}

func (c *checker) visit(en *keytaint.Func, n ast.Node, fs keytaint.Facts) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.checkAssignParts(en, s, s.Lhs, s.Rhs, fs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					c.checkAssignParts(en, s, lhs, vs.Values, fs)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.scanExpr(en, r, fs, ctxReturn)
		}
	case *ast.DeferStmt:
		// Arguments are evaluated at registration; a source result passed
		// to a deferred sink is created now and zeroized at exit, which
		// satisfies the discipline.
		if _, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			return // the engine walks the body at function exit
		}
		c.scanExpr(en, s.Call, fs, ctxLeak)
	case *ast.GoStmt:
		c.scanExpr(en, s.Call, fs, ctxLeak)
	case *ast.ExprStmt:
		c.scanExpr(en, s.X, fs, ctxLeak)
	case *ast.SendStmt:
		// A channel send is an ownership transfer, like a return: the
		// receiver end owns the release (the engine credits the sent
		// path symmetrically).
		c.scanExpr(en, s.Value, fs, ctxReturn)
	case *ast.RangeStmt:
		c.scanExpr(en, s.X, fs, ctxLeak)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		// no expressions that can carry byte slices
	case ast.Expr:
		// Decomposed control expressions: if/for conditions, switch tags,
		// case expressions.
		c.scanExpr(en, s, fs, ctxLeak)
	}
}

// checkAssignParts registers binding obligations for tainted call
// results and scans the right-hand sides for anonymous source calls.
// stmt is the enclosing CFG node, the key into the backward release facts.
func (c *checker) checkAssignParts(en *keytaint.Func, stmt ast.Node, lhs, rhs []ast.Expr, fs keytaint.Facts) {
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			for idx, origin := range en.ResultTaint(call, fs) {
				if idx < len(lhs) {
					c.obligation(en, stmt, lhs[idx], call, idx, origin)
				}
			}
			c.scanExpr(en, call, fs, ctxBound)
		}
		return
	}
	for i, r := range rhs {
		if i >= len(lhs) {
			break
		}
		ctx := ctxLeak
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			ctx = ctxBound
			if origin, ok := en.ResultTaint(call, fs)[0]; ok {
				c.obligation(en, stmt, lhs[i], call, 0, origin)
			}
		}
		c.scanExpr(en, r, fs, ctx)
	}
}

// obligation checks that the value just bound to lhs is provably
// released on every continuation, and reports with the full
// source-to-binding provenance chain when it is not. Obligations attach
// to byte-slice results (scrubbed with scrub.Bytes / clear) and to
// *math/big.Int results (scrubbed with scrub.Big): a big.Int built from
// key bytes holds the same limbs the slice did, so letting it escape
// unscrubbed was the math/big hole this closes.
func (c *checker) obligation(en *keytaint.Func, stmt ast.Node, lhs ast.Expr, call *ast.CallExpr, idx int, origin string) {
	if !en.ResultNeedsRelease(call, idx) {
		return
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		c.pass.Reportf(lhs.Pos(),
			"key material (%s) is discarded into _ where nothing can zeroize it; "+
				"bind it and release it with scrub.Bytes (or another //memlint:sink)", origin)
		return
	}
	p, ok := en.PathOf(lhs)
	if !ok {
		c.pass.Reportf(lhs.Pos(),
			"key material (%s) is stored where the lifetime verifier cannot prove "+
				"a zeroize (map entry, pointer dereference, or a path deeper than two "+
				"fields); bind it to a local first and scrub that", origin)
		return
	}
	if en.ReleasedAfter(stmt).Has(p) {
		return
	}
	c.pass.Reportf(lhs.Pos(),
		"key material in %s (%s) is not zeroized on every path to return; "+
			"release it with scrub.Bytes / scrub.Big / clear / a zeroizing callee, "+
			"or return it to transfer the obligation to the caller (DESIGN.md §6)",
		p, origin)
}

// scanExpr walks an expression looking for source calls consumed where
// no obligation can ever attach. Function literals are the engine's to
// walk, as bodies of their own.
func (c *checker) scanExpr(en *keytaint.Func, e ast.Expr, fs keytaint.Facts, ctx int) {
	info := c.pass.TypesInfo
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		// Conversions and append are transparent: the bytes end up in the
		// surrounding context's value.
		if analysis.IsConversion(info, x) && len(x.Args) == 1 {
			c.scanExpr(en, x.Args[0], fs, ctx)
			return
		}
		if name := analysis.BuiltinName(info, x); name != "" {
			argCtx := ctxLeak
			if name == "append" {
				argCtx = ctx
			}
			if name == "clear" {
				argCtx = ctxSink
			}
			for _, a := range x.Args {
				c.scanExpr(en, a, fs, argCtx)
			}
			return
		}
		fn := analysis.FuncObj(info, x)
		if ctx == ctxLeak {
			if origin, ok := anyByteTaint(en, x, en.ResultTaint(x, fs)); ok {
				callee := "the callee"
				if fn != nil {
					callee = keytaint.PrettyName(fn)
				}
				c.pass.Reportf(x.Pos(),
					"result of %s carries key material (%s) but is consumed anonymously, "+
						"so nothing can ever zeroize the copy; bind it to a local, use it, "+
						"and release it with scrub.Bytes (or another //memlint:sink)",
					callee, origin)
			}
		}
		if fn == nil {
			// A sink called through a function value is still a sink when
			// the points-to layer proves the single target.
			if fns, lits, complete := en.FuncTargets(x.Fun); complete && len(fns) == 1 && len(lits) == 0 {
				fn = fns[0]
			}
		}
		var zeroized map[int]bool
		if fn != nil {
			zeroized = c.kt.Summary(fn).ZeroizedParams
		}
		for i, a := range x.Args {
			argCtx := ctxLeak
			if zeroized[i] {
				argCtx = ctxSink
			}
			c.scanExpr(en, a, fs, argCtx)
		}
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			c.scanExpr(en, sel.X, fs, ctxLeak)
		}
	case *ast.BinaryExpr:
		c.scanExpr(en, x.X, fs, ctxLeak)
		c.scanExpr(en, x.Y, fs, ctxLeak)
	case *ast.UnaryExpr:
		// &x in a return operand still transfers ownership of x's
		// contents to the caller.
		c.scanExpr(en, x.X, fs, throughCtx(ctx))
	case *ast.StarExpr:
		c.scanExpr(en, x.X, fs, ctxLeak)
	case *ast.CompositeLit:
		// A composite literal in a return operand carries its elements out
		// with it (ownership transfer); anywhere else the elements leak.
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.scanExpr(en, el, fs, throughCtx(ctx))
		}
	case *ast.IndexExpr:
		c.scanExpr(en, x.X, fs, ctxLeak)
		c.scanExpr(en, x.Index, fs, ctxLeak)
	case *ast.SliceExpr:
		c.scanExpr(en, x.X, fs, ctxLeak)
	case *ast.SelectorExpr:
		c.scanExpr(en, x.X, fs, ctxLeak)
	case *ast.TypeAssertExpr:
		c.scanExpr(en, x.X, fs, ctxLeak)
	case *ast.KeyValueExpr:
		c.scanExpr(en, x.Value, fs, ctxLeak)
	}
}

// anyByteTaint picks the lowest-index tainted RELEASABLE result (byte
// slice or *big.Int), for deterministic messages on multi-result calls.
// Tainted results of other types (a struct holding key fields) carry no
// direct scrub obligation — the fields do, at their own bindings.
func anyByteTaint(en *keytaint.Func, call *ast.CallExpr, rt map[int]string) (string, bool) {
	best, origin := -1, ""
	for idx, o := range rt {
		if !en.ResultNeedsRelease(call, idx) {
			continue
		}
		if best < 0 || idx < best {
			best, origin = idx, o
		}
	}
	return origin, best >= 0
}
